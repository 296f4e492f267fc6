(** Typed columnar vectors with optional null bitmap.

    String columns come in two physical layouts: raw ([S]) and
    dictionary-encoded ([D], DuckDB-style). A dictionary column stores one
    small [dict] of distinct values plus a vector of codes; gathers copy
    only codes, predicates can be evaluated once per distinct value, and
    sorting compares precomputed lexicographic ranks instead of strings.
    Both layouts carry [ty = TString], so the logical schema is unaffected
    by the encoding choice.

    Ints, dates, floats and dictionary codes have one physical backing:
    [Bigarray.Array1] vectors ({!ivec}/{!fvec}) — contiguous, unboxed,
    off-heap C-layout memory that the typed loops in {!Eval} and the fused
    kernels ({!Kernel}) stream over with [unsafe_get], with no GC-visited
    headers between elements. Ints use the [Bigarray.int] kind rather than
    [int64_elt]: the cells are the same 8-byte words, but reads yield
    immediate OCaml ints whereas [int64_elt] would box every element.
    Base tables and intermediates alike allocate their payloads here. A
    vector's memory goes back to the allocator once the GC finalizes its
    dead column, while OCaml 5.1 never compacts the GC heap: GC-heap
    payloads from earlier ingests would keep the heap at its high-water
    mark for the life of the process (see DESIGN.md §10). *)

open Value

type ivec = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
type fvec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A per-column string dictionary, shared by reference across gathers. *)
type dict = {
  values : string array; (* code -> value; entries are unique *)
  rank : int array; (* code -> lexicographic rank among [values] *)
  index : (string, int) Hashtbl.t; (* value -> code *)
}

type data =
  | I of ivec (* TInt and TDate *)
  | F of fvec
  | S of string array
  | B of bool array
  | D of ivec * dict (* dictionary-encoded TString: one code per row *)

type t = { ty : ty; data : data; nulls : Bitset.t option }

(* ------------------------------------------------------------------ *)
(* Vectors                                                            *)
(* ------------------------------------------------------------------ *)

(* Fresh vectors are uninitialized; every producer writes each cell. *)
let ivec_create n : ivec =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let fvec_create n : fvec =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* Typed loops rather than [Bigarray.Array1.init], whose kind-polymorphic
   body stores every cell through a C call (boxing floats on the way). *)
let ivec_init n (f : int -> int) : ivec =
  let v = ivec_create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (f i)
  done;
  v

let fvec_init n (f : int -> float) : fvec =
  let v = fvec_create n in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set v i (f i)
  done;
  v

let ivec_of_array (a : int array) : ivec =
  ivec_init (Array.length a) (fun i -> Array.unsafe_get a i)

let fvec_of_array (a : float array) : fvec =
  fvec_init (Array.length a) (fun i -> Array.unsafe_get a i)

(* One blit per part into a vector of the summed length. *)
let vec_concat kind (vs : ('a, 'b, Bigarray.c_layout) Bigarray.Array1.t list) =
  let total = List.fold_left (fun acc v -> acc + Bigarray.Array1.dim v) 0 vs in
  let out = Bigarray.Array1.create kind Bigarray.c_layout total in
  ignore
    (List.fold_left
       (fun k v ->
         let n = Bigarray.Array1.dim v in
         Bigarray.Array1.blit v (Bigarray.Array1.sub out k n);
         k + n)
       0 vs);
  out

let ivec_concat (vs : ivec list) : ivec = vec_concat Bigarray.int vs
let fvec_concat (vs : fvec list) : fvec = vec_concat Bigarray.float64 vs

let make_dict (values : string array) : dict =
  let n = Array.length values in
  let index = Hashtbl.create (2 * max 1 n) in
  Array.iteri (fun i v -> if not (Hashtbl.mem index v) then Hashtbl.add index v i) values;
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> String.compare values.(a) values.(b)) order;
  let rank = Array.make n 0 in
  Array.iteri (fun pos code -> rank.(code) <- pos) order;
  { values; rank; index }

let dict_find (d : dict) (s : string) : int option = Hashtbl.find_opt d.index s
let dict_size (d : dict) = Array.length d.values

(* Rank two dictionaries against a merged ordering, so cross-dictionary
   comparisons (e.g. l_commitdate < l_receiptdate) run on ints instead of
   per-row string compares. Equal strings get equal merged ranks. Cost is
   one sort of |dx| + |dy| entries, amortized over every row. *)
let cross_ranks (dx : dict) (dy : dict) : int array * int array =
  let nx = Array.length dx.values and ny = Array.length dy.values in
  let tagged =
    Array.init (nx + ny) (fun k ->
        if k < nx then (dx.values.(k), true, k)
        else (dy.values.(k - nx), false, k - nx))
  in
  Array.sort (fun (a, _, _) (b, _, _) -> String.compare a b) tagged;
  let rx = Array.make nx 0 and ry = Array.make ny 0 in
  let rank = ref 0 in
  Array.iteri
    (fun k (v, from_x, code) ->
      if k > 0 then begin
        let pv, _, _ = tagged.(k - 1) in
        if pv <> v then incr rank
      end;
      if from_x then rx.(code) <- !rank else ry.(code) <- !rank)
    tagged;
  (rx, ry)

let length c =
  match c.data with
  | I v | D (v, _) -> Bigarray.Array1.dim v
  | F v -> Bigarray.Array1.dim v
  | S a -> Array.length a
  | B a -> Array.length a

let is_null c i =
  match c.nulls with None -> false | Some m -> Bitset.get m i

let has_nulls c =
  match c.nulls with None -> false | Some m -> not (Bitset.is_empty m)

let of_ivec ?(ty = TInt) (v : ivec) = { ty; data = I v; nulls = None }
let of_fvec (v : fvec) = { ty = TFloat; data = F v; nulls = None }
let of_ints a = of_ivec (ivec_of_array a)
let of_dates a = of_ivec ~ty:TDate (ivec_of_array a)
let of_floats a = of_fvec (fvec_of_array a)
let of_strings a = { ty = TString; data = S a; nulls = None }
let of_bools a = { ty = TBool; data = B a; nulls = None }

(* Build a dictionary column directly from distinct values and codes
   (generators that already know the value domain skip per-row strings). *)
let of_coded (values : string array) (codes : ivec) : t =
  if Array.length values = 0 then of_strings [||]
  else { ty = TString; data = D (codes, make_dict values); nulls = None }

let is_dict c = match c.data with D _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Unboxed closure accessors                                          *)
(* ------------------------------------------------------------------ *)

(* Row readers that skip boxing. [None] means the column is not of that
   physical family; callers fall through to their generic path. These cost
   one indirect call per row — fine in mid-tier loops, while {!Eval}'s
   typed loops and the fused kernels ({!Kernel}) match the payload
   directly for call-free loops. *)

let int_reader c : (int -> int) option =
  match c.data with
  | I v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | _ -> None

let float_reader c : (int -> float) option =
  match c.data with
  | F v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | _ -> None

(* Any numeric column viewed as floats. *)
let num_reader c : (int -> float) option =
  match c.data with
  | F v -> Some (fun i -> Bigarray.Array1.unsafe_get v i)
  | I v -> Some (fun i -> float_of_int (Bigarray.Array1.unsafe_get v i))
  | _ -> None

(* Dictionary code reader plus the dictionary. *)
let codes_reader c : ((int -> int) * dict) option =
  match c.data with
  | D (v, d) -> Some ((fun i -> Bigarray.Array1.unsafe_get v i), d)
  | _ -> None

(* Dictionary-encode a raw string column when the number of distinct values
   is at most [max_distinct]; null rows get code 0 and keep their null bit.
   Returns the column unchanged for other layouts or high-cardinality data. *)
let encode ?(max_distinct = 1024) (c : t) : t =
  match c.data with
  | S a when Array.length a > 0 ->
    let n = Array.length a in
    let index = Hashtbl.create 64 in
    let values = ref [] and n_values = ref 0 in
    let codes = ivec_create n in
    (try
       for i = 0 to n - 1 do
         if is_null c i then Bigarray.Array1.unsafe_set codes i 0
         else begin
           let s = a.(i) in
           match Hashtbl.find_opt index s with
           | Some code -> Bigarray.Array1.unsafe_set codes i code
           | None ->
             if !n_values >= max_distinct then raise Exit;
             Hashtbl.add index s !n_values;
             Bigarray.Array1.unsafe_set codes i !n_values;
             values := s :: !values;
             incr n_values
         end
       done;
       if !n_values = 0 then c (* all-null column: keep raw *)
       else
         let values = Array.of_list (List.rev !values) in
         { c with data = D (codes, make_dict values) }
     with Exit -> c)
  | _ -> c

(* Decode back to a raw string column (materialization / equivalence tests). *)
let decode (c : t) : t =
  match c.data with
  | D (codes, d) ->
    { c with
      data =
        S (Array.init (Bigarray.Array1.dim codes) (fun i ->
               d.values.(Bigarray.Array1.unsafe_get codes i))) }
  | _ -> c

let get c i =
  if is_null c i then VNull
  else
    match (c.ty, c.data) with
    | TDate, I v -> VDate (Bigarray.Array1.get v i)
    | _, I v -> VInt (Bigarray.Array1.get v i)
    | _, F v -> VFloat (Bigarray.Array1.get v i)
    | _, S a -> VString a.(i)
    | _, B a -> VBool a.(i)
    | _, D (v, d) -> VString d.values.(Bigarray.Array1.get v i)

(* Raw accessors ignoring nulls; used in tight loops after null checks. *)
let int_at c i =
  match c.data with
  | I v -> Bigarray.Array1.get v i
  | B a -> if a.(i) then 1 else 0
  | F v -> int_of_float (Bigarray.Array1.get v i)
  | S _ | D _ -> invalid_arg "Column.int_at: string column"

let float_at c i =
  match c.data with
  | F v -> Bigarray.Array1.get v i
  | I v -> float_of_int (Bigarray.Array1.get v i)
  | B a -> if a.(i) then 1. else 0.
  | S _ | D _ -> invalid_arg "Column.float_at: string column"

let string_at c i =
  match c.data with
  | S a -> a.(i)
  | D (v, d) -> d.values.(Bigarray.Array1.get v i)
  | _ -> Value.to_string (get c i)

let bool_at c i =
  match c.data with
  | B a -> a.(i)
  | I v -> Bigarray.Array1.get v i <> 0
  | F v -> Bigarray.Array1.get v i <> 0.
  | S _ | D _ -> invalid_arg "Column.bool_at: string column"

(* Build a column of type [ty] from boxed values (nulls allowed). Null
   cells hold 0 / 0. / "" / false, so branch-free loops that read them
   before consulting the null mask see a harmless value. *)
let of_values ty (vs : Value.t array) =
  let n = Array.length vs in
  let nulls = ref None in
  let null_at i =
    match vs.(i) with
    | VNull ->
      let m =
        match !nulls with
        | Some m -> m
        | None ->
          let m = Bitset.create n in
          nulls := Some m;
          m
      in
      Bitset.set m i;
      true
    | _ -> false
  in
  let data =
    match ty with
    | TInt | TDate ->
      I (ivec_init n (fun i -> if null_at i then 0 else Value.as_int vs.(i)))
    | TFloat ->
      F (fvec_init n (fun i -> if null_at i then 0. else Value.as_float vs.(i)))
    | TString ->
      S
        (Array.init n (fun i ->
             if null_at i then ""
             else match vs.(i) with VString s -> s | v -> Value.to_string v))
    | TBool ->
      B
        (Array.init n (fun i ->
             (not (null_at i))
             && match vs.(i) with VBool b -> b | v -> Value.as_int v <> 0))
  in
  { ty; data; nulls = !nulls }

(* [n] copies of [v]: the payload is filled in place, no boxed array. *)
let const ty v n =
  let one = of_values ty [| v |] in
  let data =
    match one.data with
    | I a ->
      let out = ivec_create n in
      Bigarray.Array1.fill out (Bigarray.Array1.get a 0);
      I out
    | F a ->
      let out = fvec_create n in
      Bigarray.Array1.fill out (Bigarray.Array1.get a 0);
      F out
    | S a -> S (Array.make n a.(0))
    | B a -> B (Array.make n a.(0))
    | D _ -> assert false (* of_values never dictionary-encodes *)
  in
  let nulls =
    Option.map
      (fun _ ->
        let m = Bitset.create n in
        for i = 0 to n - 1 do
          Bitset.set m i
        done;
        m)
      one.nulls
  in
  { ty; data; nulls }

(* Gather rows [idx] into a new column. [idx.(k) = -1] produces null, which
   outer joins use for unmatched rows. Dictionary columns gather only codes
   and share the dictionary with the source. *)
let take c idx =
  let n = Array.length idx in
  let any_missing = Array.exists (fun i -> i < 0) idx in
  let src_nulls = c.nulls in
  let nulls =
    if any_missing || src_nulls <> None then begin
      let m = Bitset.create n in
      Array.iteri
        (fun k i ->
          if i < 0 then Bitset.set m k
          else
            match src_nulls with
            | Some sm when Bitset.get sm i -> Bitset.set m k
            | _ -> ())
        idx;
      if Bitset.is_empty m then None else Some m
    end
    else None
  in
  let gather_ivec (v : ivec) =
    let out = ivec_create n in
    for k = 0 to n - 1 do
      let i = Array.unsafe_get idx k in
      Bigarray.Array1.unsafe_set out k
        (if i < 0 then 0 else Bigarray.Array1.get v i)
    done;
    out
  in
  let data =
    match c.data with
    | I v -> I (gather_ivec v)
    | D (v, d) -> D (gather_ivec v, d)
    | F v ->
      let out = fvec_create n in
      for k = 0 to n - 1 do
        let i = Array.unsafe_get idx k in
        Bigarray.Array1.unsafe_set out k
          (if i < 0 then 0. else Bigarray.Array1.get v i)
      done;
      F out
    | S a -> S (Array.map (fun i -> if i < 0 then "" else a.(i)) idx)
    | B a -> B (Array.map (fun i -> if i < 0 then false else a.(i)) idx)
  in
  { ty = c.ty; data; nulls }

let concat cs =
  match cs with
  | [] -> invalid_arg "Column.concat: empty"
  | [ c ] -> c
  | first :: _ ->
    let no_nulls = List.for_all (fun c -> c.nulls = None) cs in
    let same_shape =
      List.for_all
        (fun c ->
          match (first.data, c.data) with
          | I _, I _ | F _, F _ | S _, S _ | B _, B _ -> true
          | D (_, d1), D (_, d2) -> d1 == d2 (* shared dictionary only *)
          | (I _ | F _ | S _ | B _ | D _), _ -> false)
        cs
    in
    if no_nulls && same_shape then
      let parts sel = List.map (fun c -> sel c.data) cs in
      let data =
        match first.data with
        | I _ -> I (ivec_concat (parts (function I v -> v | _ -> assert false)))
        | F _ -> F (fvec_concat (parts (function F v -> v | _ -> assert false)))
        | D (_, d) ->
          D (ivec_concat (parts (function D (v, _) -> v | _ -> assert false)), d)
        | S _ -> S (Array.concat (parts (function S a -> a | _ -> assert false)))
        | B _ -> B (Array.concat (parts (function B a -> a | _ -> assert false)))
      in
      { ty = first.ty; data; nulls = None }
    else begin
      let total = List.fold_left (fun acc c -> acc + length c) 0 cs in
      let vs = Array.make total VNull in
      let k = ref 0 in
      List.iter
        (fun c ->
          for i = 0 to length c - 1 do
            vs.(!k) <- get c i;
            incr k
          done)
        cs;
      of_values first.ty vs
    end

(* Append batch [b]'s rows after resident column [a] without decoding or
   rebuilding [a]'s payload: one blit of [a]'s cells into the merged vector
   plus an O(|b|) pass over the batch. The merged column keeps [a]'s
   layout (raw/dict), and a dictionary grows code-stably — resident codes
   keep their meaning, unseen batch values get fresh codes at the end — so
   per-code state computed against the old dictionary (zone maps, cached
   ranks) stays valid for the resident prefix. This is what keeps
   {!Catalog.append} at O(delta) instead of O(table). *)
let append_chunk (a : t) (b : t) : t =
  if a.ty <> b.ty then invalid_arg "Column.append_chunk: type mismatch";
  let na = length a and nb = length b in
  let nulls =
    if a.nulls = None && b.nulls = None then None
    else begin
      let m = Bitset.create (na + nb) in
      (match a.nulls with
      | Some ma -> Bitset.iter_set (fun i -> Bitset.set m i) ma
      | None -> ());
      (match b.nulls with
      | Some mb -> Bitset.iter_set (fun i -> Bitset.set m (na + i)) mb
      | None -> ());
      if Bitset.is_empty m then None else Some m
    end
  in
  (* Extend [d] with the batch's unseen values; returns the batch's codes
     against the (possibly grown) dictionary. Null rows keep code 0 and
     their null bit. The dictionary can grow past the ingest encoding cap:
     appends are incremental by design, and falling back to raw here would
     force an O(table) decode of the resident rows. *)
  let extend_dict (d : dict) : ivec * dict =
    let index = Hashtbl.copy d.index in
    let fresh = ref [] and n_fresh = ref 0 in
    let base = dict_size d in
    let codes_b =
      ivec_init nb (fun i ->
          if is_null b i then 0
          else
            let s = string_at b i in
            match Hashtbl.find_opt index s with
            | Some c -> c
            | None ->
              let c = base + !n_fresh in
              Hashtbl.add index s c;
              fresh := s :: !fresh;
              incr n_fresh;
              c)
    in
    let d' =
      if !n_fresh = 0 then d
      else make_dict (Array.append d.values (Array.of_list (List.rev !fresh)))
    in
    (codes_b, d')
  in
  let data =
    match a.data with
    | I v ->
      I (ivec_concat
           [ v; ivec_init nb (fun i -> if is_null b i then 0 else int_at b i) ])
    | F v ->
      F (fvec_concat
           [ v;
             fvec_init nb (fun i -> if is_null b i then 0. else float_at b i) ])
    | D (v, d) ->
      let codes_b, d' = extend_dict d in
      D (ivec_concat [ v; codes_b ], d')
    | B xs ->
      B (Array.append xs
           (Array.init nb (fun i -> (not (is_null b i)) && bool_at b i)))
    | S xs ->
      S (Array.append xs
           (Array.init nb (fun i -> if is_null b i then "" else string_at b i)))
  in
  { ty = a.ty; data; nulls }
