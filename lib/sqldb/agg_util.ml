(** Aggregate accumulators shared by the vectorized and compiled executors. *)

open Value

(* Neumaier compensated summation. Float sums are accumulated as
   (total, compensation) pairs: each add also recovers the low-order bits
   the naive add drops, so the finished sum is exact to ~1 ulp of the
   total *regardless of association order*. This is what keeps chunked
   and radix-partitioned partial sums bit-stable against the serial
   single-threaded baseline after output rounding — naive partial sums
   drift by chunk-count-dependent amounts (~1e-3 absolute on a 1e5-row
   1e8-magnitude TPC-H q1 aggregate), enough to flip a rounded digit. *)
type ksum = { mutable total : float; mutable comp : float }

let ksum () = { total = 0.; comp = 0. }

(* The compensation recovered when adding [x] to a running total [s],
   where [t = s +. x]. This is THE Neumaier step: every compensated
   accumulator in the engine (ksum, boxed acc, dense slot arrays, the
   fused kernels in {!Kernel}) goes through this one function, so chunked,
   radix-partitioned and fused sums all round identically. Note adding
   [x = 0.0] is an exact no-op — [t = s] and the step returns [0.] — which
   is what lets the branch-free kernels add [value * mask] for every row. *)
let[@inline] comp_step s x t =
  if Float.abs s >= Float.abs x then (s -. t) +. x else (x -. t) +. s

let kadd (k : ksum) (x : float) =
  let s = k.total in
  let t = s +. x in
  k.comp <- k.comp +. comp_step s x t;
  k.total <- t

let kfinish (k : ksum) = k.total +. k.comp

(* Compensated add into a (sum, comp) float-array slot pair — the unboxed
   accumulator shape used by dense aggregation and the fused kernels
   (float stores into float arrays don't box, unlike record fields). *)
let[@inline] kadd_slot (sum : float array) (comp : float array) k x =
  let s = Array.unsafe_get sum k in
  let t = s +. x in
  Array.unsafe_set comp k (Array.unsafe_get comp k +. comp_step s x t);
  Array.unsafe_set sum k t

type acc = {
  mutable count : int; (* rows contributing (non-null for arg aggregates) *)
  mutable sumi : int;
  mutable sumf : float;
  mutable sumc : float; (* compensation term of [sumf] *)
  mutable minv : Value.t;
  mutable maxv : Value.t;
  mutable seen : (string, unit) Hashtbl.t option; (* DISTINCT tracking *)
  mutable seeni : (int, unit) Hashtbl.t option;
      (* DISTINCT over int-like columns (ints, dictionary codes, bools):
         unboxed keys instead of the packed strings of [seen]. Populated
         lazily by the specialized updater in [update_fn]; a given
         accumulator only ever uses one of [seen]/[seeni] because the
         column representation is stable across the chunks of a query. *)
}

let create (spec : Plan.agg_spec) : acc =
  { count = 0; sumi = 0; sumf = 0.; sumc = 0.; minv = VNull; maxv = VNull;
    seen = (if spec.distinct then Some (Hashtbl.create 16) else None);
    seeni = None }

(* Compensated [acc.sumf <- acc.sumf +. x]. *)
let acc_add_f (acc : acc) (x : float) =
  let s = acc.sumf in
  let t = s +. x in
  acc.sumc <- acc.sumc +. comp_step s x t;
  acc.sumf <- t

let acc_sum_f (acc : acc) = acc.sumf +. acc.sumc

let update (spec : Plan.agg_spec) (acc : acc) (cols : Column.t array) row =
  match spec.arg with
  | None -> acc.count <- acc.count + 1 (* count star *)
  | Some i ->
    let c = cols.(i) in
    if Column.is_null c row then ()
    else begin
      let proceed =
        match acc.seen with
        | None -> true
        | Some seen ->
          (* one column per accumulator, so a dictionary code is a valid
             distinct key on its own *)
          let k =
            match Column.codes_reader c with
            | Some (codes, _) -> "\x01" ^ string_of_int (codes row)
            | None -> Hash_util.pack_values [ Column.get c row ]
          in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end
      in
      if proceed then begin
        acc.count <- acc.count + 1;
        match spec.fn with
        | Sql_ast.Count | Sql_ast.CountStar -> ()
        | Sql_ast.Sum | Sql_ast.Avg -> (
          match c.Column.data with
          | Column.I _ -> (
            let x = Column.int_at c row in
            acc.sumi <- acc.sumi + x;
            match spec.fn with
            | Sql_ast.Avg -> acc_add_f acc (float_of_int x)
            | _ -> ())
          | _ -> acc_add_f acc (Column.float_at c row))
        | Sql_ast.Min ->
          let v = Column.get c row in
          if Value.is_null acc.minv || Value.compare_values v acc.minv < 0 then
            acc.minv <- v
        | Sql_ast.Max ->
          let v = Column.get c row in
          if Value.is_null acc.maxv || Value.compare_values v acc.maxv > 0 then
            acc.maxv <- v
      end
    end

(* Pre-resolved per-row updater: the spec/column dispatch runs once at
   closure creation instead of once per row. Falls back to [update] for the
   rarer shapes (DISTINCT, min/max, non-numeric columns). The closures only
   read their captured arrays, so they are safe to share across domains. *)
let update_fn (spec : Plan.agg_spec) (cols : Column.t array) :
    acc -> int -> unit =
  let generic acc row = update spec acc cols row in
  match spec.arg with
  | None -> fun acc _ -> acc.count <- acc.count + 1
  | Some i when spec.distinct -> (
    let c = cols.(i) in
    let code =
      match (Column.int_reader c, Column.codes_reader c, c.Column.data) with
      | Some get, _, _ -> Some get
      | _, Some (codes, _), _ -> Some codes
      | _, _, Column.B b -> Some (fun row -> Bool.to_int b.(row))
      | _ -> None
    in
    match (spec.fn, code) with
    | (Sql_ast.Count | Sql_ast.CountStar), Some code ->
      let body acc row =
        let seen =
          match acc.seeni with
          | Some s -> s
          | None ->
            let s = Hashtbl.create 16 in
            acc.seeni <- Some s;
            s
        in
        let k = code row in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          acc.count <- acc.count + 1
        end
      in
      (match c.Column.nulls with
      | None -> body
      | Some m -> fun acc row -> if not (Bitset.get m row) then body acc row)
    | _ -> generic)
  | Some i -> (
    let c = cols.(i) in
    let counting body =
      match c.Column.nulls with
      | None ->
        fun acc row ->
          acc.count <- acc.count + 1;
          body acc row
      | Some m ->
        fun acc row ->
          if not (Bitset.get m row) then begin
            acc.count <- acc.count + 1;
            body acc row
          end
    in
    match (spec.fn, Column.int_reader c, Column.float_reader c) with
    | (Sql_ast.Count | Sql_ast.CountStar), _, _ -> counting (fun _ _ -> ())
    | Sql_ast.Sum, Some get, _ ->
      counting (fun acc row -> acc.sumi <- acc.sumi + get row)
    | Sql_ast.Avg, Some get, _ ->
      counting (fun acc row ->
          let x = get row in
          acc.sumi <- acc.sumi + x;
          acc_add_f acc (float_of_int x))
    | (Sql_ast.Sum | Sql_ast.Avg), None, Some get ->
      counting (fun acc row -> acc_add_f acc (get row))
    | _ -> generic)

let update_fns (specs : Plan.agg_spec array) (cols : Column.t array) :
    (acc -> int -> unit) array =
  Array.map (fun spec -> update_fn spec cols) specs

let merge (spec : Plan.agg_spec) (a : acc) (b : acc) =
  (match (a.seeni, b.seeni) with
  | Some sa, Some sb ->
    Hashtbl.iter
      (fun k () -> if not (Hashtbl.mem sa k) then Hashtbl.add sa k ())
      sb;
    a.count <- Hashtbl.length sa
  | Some _, None when b.count = 0 -> ()
  | None, Some sb when a.count = 0 ->
    a.seeni <- Some sb;
    a.count <- Hashtbl.length sb
  | _ -> (
    match (a.seen, b.seen) with
    | Some sa, Some sb ->
      (* Distinct accumulators merged across partitions: recount overlaps. *)
      Hashtbl.iter
        (fun k () -> if not (Hashtbl.mem sa k) then Hashtbl.add sa k ())
        sb;
      a.count <- Hashtbl.length sa
    | _ ->
      a.count <- a.count + b.count;
      a.sumi <- a.sumi + b.sumi;
      acc_add_f a b.sumf;
      acc_add_f a b.sumc));
  (match spec.fn with
  | Sql_ast.Min ->
    if
      Value.is_null a.minv
      || ((not (Value.is_null b.minv)) && Value.compare_values b.minv a.minv < 0)
    then a.minv <- b.minv
  | Sql_ast.Max ->
    if
      Value.is_null a.maxv
      || ((not (Value.is_null b.maxv)) && Value.compare_values b.maxv a.maxv > 0)
    then a.maxv <- b.maxv
  | _ -> ())

let finish (spec : Plan.agg_spec) (acc : acc) : Value.t =
  match spec.fn with
  | Sql_ast.Count | Sql_ast.CountStar -> VInt acc.count
  | Sql_ast.Avg ->
    if acc.count = 0 then VNull
    else VFloat (acc_sum_f acc /. float_of_int acc.count)
  | Sql_ast.Sum ->
    if acc.count = 0 then VNull
    else if spec.out_ty = TInt then VInt acc.sumi
    else VFloat (acc_sum_f acc)
  | Sql_ast.Min -> acc.minv
  | Sql_ast.Max -> acc.maxv

(* ------------------------------------------------------------------ *)
(* Unboxed slot-indexed accumulators (dense aggregation)              *)
(* ------------------------------------------------------------------ *)

(* Direct-indexed grouping keeps one accumulator per packed key slot. The
   boxed [acc] costs a 7-field record per (slot, spec) plus a [Value.t]
   box per min/max update; for the common shapes the state is instead a
   pair of unboxed [int array]/[float array] columns indexed by slot —
   no allocation on the update path at all. The slot arrays are persistent
   per range while the row accessors are rebuilt per chunk (chunk columns
   are gathers of the base columns, so the data constructor — and hence
   the chosen shape — is chunk-stable). Shapes that stay boxed (DISTINCT,
   min/max over strings/dictionaries, sums over exotic columns) fall back
   to lazily-created [acc]s behind the same updater interface. *)
type dense =
  | DCount of int array
  | DSumI of { count : int array; sum : int array }
  | DSumF of { count : int array; sum : float array; comp : float array }
  | DMinMaxI of { count : int array; best : int array; is_min : bool }
  | DMinMaxF of { count : int array; best : float array; is_min : bool }

(* [None] when this spec/column shape has no unboxed representation. The
   decision only looks at the column's data constructor, so it holds for
   every chunk of the same base columns. *)
let dense_create (spec : Plan.agg_spec) (cols : Column.t array) ~(card : int)
    : dense option =
  if spec.distinct then None
  else
    match spec.arg with
    | None -> Some (DCount (Array.make card 0))
    | Some i -> (
      match (spec.fn, cols.(i).Column.data) with
      | (Sql_ast.Count | Sql_ast.CountStar), _ -> Some (DCount (Array.make card 0))
      | Sql_ast.Sum, Column.I _ when spec.out_ty = TInt ->
        Some (DSumI { count = Array.make card 0; sum = Array.make card 0 })
      | Sql_ast.Sum, Column.F _ when spec.out_ty <> TInt ->
        Some
          (DSumF
             { count = Array.make card 0;
               sum = Array.make card 0.;
               comp = Array.make card 0. })
      | Sql_ast.Avg, (Column.I _ | Column.F _) ->
        Some
          (DSumF
             { count = Array.make card 0;
               sum = Array.make card 0.;
               comp = Array.make card 0. })
      | (Sql_ast.Min | Sql_ast.Max), Column.I _ ->
        Some
          (DMinMaxI
             { count = Array.make card 0;
               best = Array.make card 0;
               is_min = spec.fn = Sql_ast.Min })
      | (Sql_ast.Min | Sql_ast.Max), Column.F _ ->
        Some
          (DMinMaxF
             { count = Array.make card 0;
               best = Array.make card 0.;
               is_min = spec.fn = Sql_ast.Min })
      | _ -> None)

(* Per-chunk updater [fun slot row -> ...] over this chunk's columns.
   Must only be called with a [dense] created for the same spec. *)
let dense_update (spec : Plan.agg_spec) (cols : Column.t array) (d : dense) :
    int -> int -> unit =
  let valid =
    match spec.arg with
    | None -> fun _ -> true
    | Some i -> (
      match cols.(i).Column.nulls with
      | None -> fun _ -> true
      | Some m -> fun row -> not (Bitset.get m row))
  in
  let geti =
    match spec.arg with
    | Some i -> (
      match Column.int_reader cols.(i) with Some get -> get | None -> fun _ -> 0)
    | None -> fun _ -> 0
  in
  let getf =
    match spec.arg with
    | Some i -> (
      match Column.num_reader cols.(i) with Some get -> get | None -> fun _ -> 0.)
    | None -> fun _ -> 0.
  in
  match d with
  | DCount count ->
    fun slot row -> if valid row then count.(slot) <- count.(slot) + 1
  | DSumI { count; sum } ->
    fun slot row ->
      if valid row then begin
        count.(slot) <- count.(slot) + 1;
        sum.(slot) <- sum.(slot) + geti row
      end
  | DSumF { count; sum; comp } ->
    fun slot row ->
      if valid row then begin
        count.(slot) <- count.(slot) + 1;
        kadd_slot sum comp slot (getf row)
      end
  | DMinMaxI { count; best; is_min } ->
    fun slot row ->
      if valid row then begin
        let v = geti row in
        (if count.(slot) = 0 then best.(slot) <- v
         else if (if is_min then v < best.(slot) else v > best.(slot)) then
           best.(slot) <- v);
        count.(slot) <- count.(slot) + 1
      end
  | DMinMaxF { count; best; is_min } ->
    fun slot row ->
      if valid row then begin
        let v = getf row in
        (if count.(slot) = 0 then best.(slot) <- v
         else if (if is_min then v < best.(slot) else v > best.(slot)) then
           best.(slot) <- v);
        count.(slot) <- count.(slot) + 1
      end

(* Slotwise merge of [b] into [a]; both must come from the same
   [dense_create] call site (same spec, same card). *)
let dense_merge (a : dense) (b : dense) : unit =
  match (a, b) with
  | DCount ca, DCount cb ->
    Array.iteri (fun k c -> ca.(k) <- ca.(k) + c) cb
  | DSumI a, DSumI b ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          a.count.(k) <- a.count.(k) + c;
          a.sum.(k) <- a.sum.(k) + b.sum.(k)
        end)
      b.count
  | DSumF a, DSumF b ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          a.count.(k) <- a.count.(k) + c;
          kadd_slot a.sum a.comp k b.sum.(k);
          kadd_slot a.sum a.comp k b.comp.(k)
        end)
      b.count
  | DMinMaxI a, DMinMaxI b ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          let v = b.best.(k) in
          (if a.count.(k) = 0 then a.best.(k) <- v
           else if (if a.is_min then v < a.best.(k) else v > a.best.(k)) then
             a.best.(k) <- v);
          a.count.(k) <- a.count.(k) + c
        end)
      b.count
  | DMinMaxF a, DMinMaxF b ->
    Array.iteri
      (fun k c ->
        if c > 0 then begin
          let v = b.best.(k) in
          (if a.count.(k) = 0 then a.best.(k) <- v
           else if (if a.is_min then v < a.best.(k) else v > a.best.(k)) then
             a.best.(k) <- v);
          a.count.(k) <- a.count.(k) + c
        end)
      b.count
  | _ -> invalid_arg "Agg_util.dense_merge: shape mismatch"

let dense_finish (spec : Plan.agg_spec) (d : dense) (slot : int) : Value.t =
  match d with
  | DCount count -> VInt count.(slot)
  | DSumI { count; sum } -> if count.(slot) = 0 then VNull else VInt sum.(slot)
  | DSumF { count; sum; comp } ->
    if count.(slot) = 0 then VNull
    else if spec.fn = Sql_ast.Avg then
      VFloat ((sum.(slot) +. comp.(slot)) /. float_of_int count.(slot))
    else VFloat (sum.(slot) +. comp.(slot))
  | DMinMaxI { count; best; _ } ->
    if count.(slot) = 0 then VNull else VInt best.(slot)
  | DMinMaxF { count; best; _ } ->
    if count.(slot) = 0 then VNull else VFloat best.(slot)

(* Rebox one slot as an [acc] — used when dense partials fold into a
   hash table that other (non-dense) partials merge into. O(1) per
   group, not per row. *)
let dense_to_acc (spec : Plan.agg_spec) (d : dense) (slot : int) : acc =
  let acc = create spec in
  (match d with
  | DCount count -> acc.count <- count.(slot)
  | DSumI { count; sum } ->
    acc.count <- count.(slot);
    acc.sumi <- sum.(slot)
  | DSumF { count; sum; comp } ->
    acc.count <- count.(slot);
    acc.sumf <- sum.(slot);
    acc.sumc <- comp.(slot)
  | DMinMaxI { count; best; _ } ->
    acc.count <- count.(slot);
    if count.(slot) > 0 then begin
      let v = VInt best.(slot) in
      match spec.fn with
      | Sql_ast.Min -> acc.minv <- v
      | _ -> acc.maxv <- v
    end
  | DMinMaxF { count; best; _ } ->
    acc.count <- count.(slot);
    if count.(slot) > 0 then begin
      let v = VFloat best.(slot) in
      match spec.fn with
      | Sql_ast.Min -> acc.minv <- v
      | _ -> acc.maxv <- v
    end);
  acc

(* Mixed per-spec slot state: unboxed where the shape allows, lazily
   created boxed accumulators elsewhere — both behind the same
   [fun slot row -> unit] updater built per chunk. *)
type slot_state =
  | SDense of dense
  | SBoxed of acc option array

let slot_states (specs : Plan.agg_spec array) (cols : Column.t array)
    ~(card : int) : slot_state array =
  Array.map
    (fun spec ->
      match dense_create spec cols ~card with
      | Some d -> SDense d
      | None -> SBoxed (Array.make card None))
    specs

let slot_update (spec : Plan.agg_spec) (cols : Column.t array)
    (st : slot_state) : int -> int -> unit =
  match st with
  | SDense d -> dense_update spec cols d
  | SBoxed accs ->
    let upd = update_fn spec cols in
    fun slot row ->
      let a =
        match accs.(slot) with
        | Some a -> a
        | None ->
          let a = create spec in
          accs.(slot) <- Some a;
          a
      in
      upd a row

let slot_updates (specs : Plan.agg_spec array) (cols : Column.t array)
    (sts : slot_state array) : (int -> int -> unit) array =
  Array.mapi (fun i spec -> slot_update spec cols sts.(i)) specs

let slot_merge (spec : Plan.agg_spec) (a : slot_state) (b : slot_state) : unit
    =
  match (a, b) with
  | SDense da, SDense db -> dense_merge da db
  | SBoxed aa, SBoxed ba ->
    Array.iteri
      (fun k acc_b ->
        match acc_b with
        | None -> ()
        | Some acc_b -> (
          match aa.(k) with
          | None -> aa.(k) <- Some acc_b
          | Some acc_a -> merge spec acc_a acc_b))
      ba
  | _ -> invalid_arg "Agg_util.slot_merge: shape mismatch"

let slot_finish (spec : Plan.agg_spec) (st : slot_state) (slot : int) :
    Value.t =
  match st with
  | SDense d -> dense_finish spec d slot
  | SBoxed accs -> (
    match accs.(slot) with
    | Some a -> finish spec a
    | None -> finish spec (create spec))

let slot_to_acc (spec : Plan.agg_spec) (st : slot_state) (slot : int) : acc =
  match st with
  | SDense d -> dense_to_acc spec d slot
  | SBoxed accs -> ( match accs.(slot) with Some a -> a | None -> create spec)
