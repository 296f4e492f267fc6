(** Compiled (Hyper-style) executor: morsel-driven fused pipelines.

    Plans are compiled into pipeline segments — a source relation plus a fused
    chunk transformer (filters, projections, join probes, semi-join probes) —
    separated by pipeline breakers (aggregation, sorting, distinct, windows,
    build sides of joins). A segment never materializes more than one morsel
    (~4K rows), in contrast to the vectorized executor which materializes
    every operator's full output. Morsels are processed in parallel across
    domains with domain-local sinks. *)

open Plan

let morsel_size = 4096

type ctx = {
  catalog : Catalog.t;
  ctes : (string, Relation.t) Hashtbl.t;
  threads : int;
}

type chunk = Relation.t

(* ------------------------------------------------------------------ *)
(* Chunk operators                                                    *)
(* ------------------------------------------------------------------ *)

(* Chunk operators return [Some empty] for empty inputs so segment schemas
   stay derivable; non-empty inputs filtered to nothing return [None]. *)
let chunk_filter pred (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  if n = 0 then Some c
  else
    let idx = Eval.eval_filter c.Relation.cols ~n pred in
    if Array.length idx = 0 then None
    else if Array.length idx = n then Some c
    else Some (Relation.take c idx)

let chunk_project items (c : chunk) : chunk =
  let n = Relation.n_rows c in
  let cols =
    List.map (fun (e, _) -> Eval.eval_col c.Relation.cols ~n e) items
  in
  { Relation.names = Array.of_list (List.map snd items);
    cols = Array.of_list cols }

(* Inner/left probe of a pre-built (possibly radix-partitioned) hash table
   on the right relation. *)
let chunk_probe ~left_outer (r : Relation.t)
    (tbl : Radix.t) (lkeys : int list)
    (residual : pexpr option) (c : chunk) : chunk option =
  let n = Relation.n_rows c in
  (* probe_fn is created per chunk, so its per-code memo (and partition
     routing state) never crosses domains *)
  let probe = Radix.probe_fn tbl c.Relation.cols lkeys in
  let li = ref [] and ri = ref [] and count = ref 0 in
  for row = n - 1 downto 0 do
    match probe row with
    | [] ->
      if left_outer then begin
        li := row :: !li;
        ri := -1 :: !ri;
        incr count
      end
    | rows ->
      List.iter
        (fun rrow ->
          li := row :: !li;
          ri := rrow :: !ri;
          incr count)
        rows
  done;
  if !count = 0 && n > 0 then None
  else begin
    let li = Array.of_list !li and ri = Array.of_list !ri in
    let lc = Array.map (fun col -> Column.take col li) c.Relation.cols in
    let rc = Array.map (fun col -> Column.take col ri) r.Relation.cols in
    let joined =
      { Relation.names = Array.append c.Relation.names r.Relation.names;
        cols = Array.append lc rc }
    in
    match residual with
    | None -> Some joined
    | Some pred -> chunk_filter pred joined
  end

let chunk_semi ~anti (r : Relation.t)
    (tbl : Radix.t option) (lkeys : int list)
    (residual_check : (chunk -> int -> int -> bool) option) (c : chunk) :
    chunk option =
  let n = Relation.n_rows c in
  let nr = Relation.n_rows r in
  let probe =
    match tbl with
    | Some tbl -> Radix.probe_fn tbl c.Relation.cols lkeys
    | None ->
      let all = List.init nr Fun.id in
      fun _ -> all
  in
  let keep = ref [] and count = ref 0 in
  for row = n - 1 downto 0 do
    let candidates = probe row in
    let matched =
      match residual_check with
      | None -> candidates <> []
      | Some check -> List.exists (fun rrow -> check c row rrow) candidates
    in
    if matched <> anti then begin
      keep := row :: !keep;
      incr count
    end
  done;
  if !count = 0 && n > 0 then None
  else Some (Relation.take c (Array.of_list !keep))

(* ------------------------------------------------------------------ *)
(* Pair-wise residual evaluation (chunk row vs build row)             *)
(* ------------------------------------------------------------------ *)

let make_residual_check (r : Relation.t) (pred : pexpr) :
    chunk -> int -> int -> bool =
 fun c lrow rrow ->
  let nlc = Array.length c.Relation.cols in
  let get col =
    if col < nlc then Column.get c.Relation.cols.(col) lrow
    else Column.get r.Relation.cols.(col - nlc) rrow
  in
  let rec ev (e : pexpr) : Value.t =
    match e with
    | PCol i -> get i
    | PLit v -> v
    | PParam (i, _) ->
      invalid_arg (Printf.sprintf "exec: unbound query parameter $%d" (i + 1))
    | PBin (op, a, b) -> Eval.apply_bin op (ev a) (ev b)
    | PNeg a -> (
      match ev a with
      | Value.VInt i -> Value.VInt (-i)
      | Value.VFloat f -> Value.VFloat (-.f)
      | _ -> Value.VNull)
    | PNot a -> (
      match ev a with
      | Value.VBool b -> Value.VBool (not b)
      | _ -> Value.VBool false)
    | PCase (whens, els) ->
      let rec go = function
        | [] -> ( match els with Some e -> ev e | None -> Value.VNull)
        | (cond, v) :: rest -> (
          match ev cond with Value.VBool true -> ev v | _ -> go rest)
      in
      go whens
    | PFunc (name, args) -> Eval.apply_func name (List.map ev args)
    | PLike (a, pat, neg) -> (
      match ev a with
      | Value.VString s -> Value.VBool (Eval.like_match pat s <> neg)
      | _ -> Value.VBool false)
    | PInList (a, items, neg) ->
      let v = ev a in
      if Value.is_null v then Value.VBool false
      else Value.VBool (List.exists (Value.equal_values v) items <> neg)
    | PIsNull (a, neg) -> Value.VBool (Value.is_null (ev a) <> neg)
    | PCast (a, ty) -> (
      match (ev a, ty) with
      | Value.VNull, _ -> Value.VNull
      | v, Value.TInt -> Value.VInt (Value.as_int v)
      | v, Value.TFloat -> Value.VFloat (Value.as_float v)
      | v, Value.TString -> Value.VString (Value.to_string v)
      | v, Value.TBool -> Value.VBool (Value.as_int v <> 0)
      | v, Value.TDate -> Value.VDate (Value.as_int v))
  in
  match ev pred with Value.VBool b -> b | _ -> false

(* ------------------------------------------------------------------ *)
(* Segments                                                           *)
(* ------------------------------------------------------------------ *)

(* A fused pipeline segment: source relation, predicates evaluated directly
   on the source columns (scan-filter fusion: only surviving rows are ever
   gathered into a morsel), and a chunk transformer for the rest of the
   pipeline. [transform] returns None when a chunk dies entirely. *)
type segment = {
  source : Relation.t;
  prefilter : pexpr list; (* conjuncts over the source schema *)
  prescan : (int -> bool) list;
      (* closure row tests fused into the scan (bloom-filter pushdown) *)
  transform : (chunk -> chunk option) option; (* None = identity *)
}

let seg_transform seg : chunk -> chunk option =
  match seg.transform with None -> fun c -> Some c | Some f -> f

(* Zone-map test for a segment's fused prefilter: the source columns of a
   scan (even when narrowed zero-copy by a column-select) are the base-table
   arrays, so {!Catalog.zones_for} recovers the ingest-time block min/max. *)
let seg_zone_test catalog (seg : segment) : (int -> bool) option =
  match seg.prefilter with
  | [] -> None
  | preds ->
    let zcols =
      Array.map (Catalog.zones_for catalog) seg.source.Relation.cols
    in
    if Array.for_all Option.is_none zcols then None
    else Stats.zone_tests_with zcols preds

(* Split [lo..hi] into maximal sub-ranges whose zone blocks may all match
   (moved to {!Stats.alive_ranges} so the fused kernels share it). *)
let alive_ranges = Stats.alive_ranges

(* Compose a further chunk operation onto a segment. *)
let seg_then seg (f : chunk -> chunk option) : segment =
  match seg.transform with
  | None -> { seg with transform = Some f }
  | Some g ->
    { seg with
      transform = Some (fun c -> match g c with None -> None | Some c -> f c) }

let rec compile_segment ctx (p : plan) : segment =
  match p.node with
  | Scan name ->
    { source = lookup ctx name; prefilter = []; prescan = []; transform = None }
  | Filter (sub, pred) ->
    let seg = compile_segment ctx sub in
    if seg.transform = None then
      (* still at the scan: fuse into the source predicate *)
      { seg with prefilter = seg.prefilter @ [ pred ] }
    else seg_then seg (chunk_filter pred)
  | Project (sub, items)
    when (match sub.node with Scan _ -> true | _ -> false)
         && List.for_all
              (fun (e, _) -> match e with PCol _ -> true | _ -> false)
              items ->
    (* Column-select directly above a scan (the pruning pass emits these):
       narrow the source zero-copy so later filters still fuse into the
       scan instead of becoming a chunk transform. *)
    let src = lookup ctx (match sub.node with Scan n -> n | _ -> assert false) in
    let source =
      { Relation.names = Array.of_list (List.map snd items);
        cols =
          Array.of_list
            (List.map
               (fun (e, _) ->
                 match e with
                 | PCol i -> src.Relation.cols.(i)
                 | _ -> assert false)
               items) }
    in
    { source; prefilter = []; prescan = []; transform = None }
  | Project (sub, items) ->
    let seg = compile_segment ctx sub in
    seg_then seg (fun c -> Some (chunk_project items c))
  | Join { kind = (JInner | JLeft) as kind; left; right; keys; residual } ->
    (* The build side is a pipeline breaker: materialize it fully. *)
    let r = stream ctx right in
    let seg = compile_segment ctx left in
    (* large builds are radix-partitioned across workers; small ones keep
       the single shared table (threshold in Radix.should) *)
    let tbl =
      Radix.build ~threads:ctx.threads ~null_as_key:false r.Relation.cols
        (List.map snd keys) ~n:(Relation.n_rows r)
    in
    let lkeys = List.map fst keys in
    let left_outer = kind = JLeft in
    if keys = [] then begin
      (* Cross join: pair every chunk row with every build row. *)
      let nr = Relation.n_rows r in
      seg_then seg
          (fun c ->
              let n = Relation.n_rows c in
              if n * nr = 0 then None
              else begin
                let li = Array.make (n * nr) 0 and ri = Array.make (n * nr) 0 in
                let k = ref 0 in
                for i = 0 to n - 1 do
                  for j = 0 to nr - 1 do
                    li.(!k) <- i;
                    ri.(!k) <- j;
                    incr k
                  done
                done;
                let lc =
                  Array.map (fun col -> Column.take col li) c.Relation.cols
                in
                let rc =
                  Array.map (fun col -> Column.take col ri) r.Relation.cols
                in
                let joined =
                  { Relation.names =
                      Array.append c.Relation.names r.Relation.names;
                    cols = Array.append lc rc }
                in
                match residual with
                | None -> Some joined
                | Some pred -> chunk_filter pred joined
              end)
    end
    else begin
      (* Inner joins drop probe rows without a partner, so the build side's
         bloom filter can run directly on the scan: misses never reach the
         morsel gather. Left joins must keep unmatched rows. *)
      let seg =
        match (kind, lkeys, seg.transform) with
        | JInner, [ lk ], None -> (
          match Radix.scan_test tbl seg.source.Relation.cols.(lk) with
          | Some test -> { seg with prescan = seg.prescan @ [ test ] }
          | None -> seg)
        | _ -> seg
      in
      if
        kind = JInner
        && Radix.pre_gate ~threads:ctx.threads ~build_rows:(Relation.n_rows r)
             ~probe_rows:(Relation.n_rows seg.source)
      then begin
        (* Partition-wise probe: join partition by partition via the shared
           radix machinery — both sides split by key hash so every worker
           probes its own cache-resident table. The pair stream is scattered
           back to probe-row order, so output is byte-identical to the fused
           morsel probe; left joins keep the fused path (their unmatched-row
           padding is interleaved per morsel). A scan-shaped probe (no
           fused transform upstream) is never materialized: its filters,
           bloom prescan, and zone skipping reduce to a selection vector
           over the base columns and the join gathers straight from them. *)
        let lrel, lsel =
          match seg.transform with
          | Some _ ->
            (* a fused upstream operator reshapes rows: materialize *)
            (run_segment ctx seg, None)
          | None ->
            let n = Relation.n_rows seg.source in
            let cols = seg.source.Relation.cols in
            let sel =
              match (seg.prefilter, seg.prescan, seg_zone_test ctx.catalog seg)
              with
              | [], [], _ -> None
              | prefilter, prescan, ztest ->
                let works =
                  List.concat_map
                    (fun (lo, hi) ->
                      let len = hi - lo + 1 in
                      List.map
                        (fun (s, l) -> (lo + s, l))
                        (Parallel.chunks
                           ~k:(Parallel.morsel_count ~threads:ctx.threads len)
                           len))
                    (alive_ranges ztest 0 (n - 1))
                in
                Some
                  (Exec_vectorized.collect_parts ~threads:ctx.threads
                     (Parallel.map_list ~threads:ctx.threads
                        (List.map
                           (fun (start, len) () ->
                             Guard.check ();
                             let preds =
                               List.map (Eval.compile_pred cols) prefilter
                             in
                             let out = Array.make (max 1 len) 0
                             and count = ref 0 in
                             for row = start to start + len - 1 do
                               if
                                 List.for_all (fun p -> p row) preds
                                 && List.for_all (fun t -> t row) prescan
                               then begin
                                 out.(!count) <- row;
                                 incr count
                               end
                             done;
                             (out, !count))
                           works)))
            in
            (seg.source, sel)
        in
        let li, ri =
          Exec_vectorized.hash_join_pairs ~threads:ctx.threads ~est:right.est
            { Exec_vectorized.rel = lrel; sel = lsel }
            (Exec_vectorized.srel_all r)
            keys
        in
        let li, ri =
          Exec_vectorized.apply_residual ~threads:ctx.threads lrel r li ri
            residual
        in
        let source =
          Exec_vectorized.concat_relations ~threads:ctx.threads lrel r li ri
        in
        { source; prefilter = []; prescan = []; transform = None }
      end
      else seg_then seg (chunk_probe ~left_outer r tbl lkeys residual)
    end
  | SemiJoin { anti; left; right; keys = _ :: _ as keys; residual = None }
    when right.est > 2. *. Float.max 1. left.est ->
    (* Inverted probe direction (mirrors Exec_vectorized.run_semijoin): the
       subquery side is estimated much larger than the outer side, so build
       the hash table over the outer side's keys and stream the subquery
       side through it, marking which outer rows found a witness. The
       estimate gate is re-checked against actual cardinalities; a
       mis-estimate falls back to the build-right direction, just over the
       already-materialized outer side. *)
    let lrel = materialize ctx left in
    let r = stream ctx right in
    let nl = Relation.n_rows lrel and nr = Relation.n_rows r in
    let lkeys = List.map fst keys and rkeys = List.map snd keys in
    let keep =
      let out = ref [] in
      if nr > 2 * nl then begin
        let ltbl =
          Radix.build ~threads:ctx.threads ~null_as_key:false
            lrel.Relation.cols lkeys ~n:nl
        in
        let matched = Bitset.create nl in
        let pf = Radix.probe_fn ltbl r.Relation.cols rkeys in
        for row = 0 to nr - 1 do
          List.iter (fun lrow -> Bitset.set matched lrow) (pf row)
        done;
        for row = nl - 1 downto 0 do
          if Bitset.get matched row <> anti then out := row :: !out
        done
      end
      else begin
        let tbl =
          Radix.build ~threads:ctx.threads ~null_as_key:false r.Relation.cols
            rkeys ~n:nr
        in
        let pf = Radix.probe_fn tbl lrel.Relation.cols lkeys in
        for row = nl - 1 downto 0 do
          if (pf row <> []) <> anti then out := row :: !out
        done
      end;
      Array.of_list !out
    in
    let source =
      { Relation.names = lrel.Relation.names;
        cols = Array.map (fun c -> Column.take c keep) lrel.Relation.cols }
    in
    { source; prefilter = []; prescan = []; transform = None }
  | SemiJoin { anti; left; right; keys; residual } ->
    let r = stream ctx right in
    let seg = compile_segment ctx left in
    let tbl =
      match keys with
      | [] -> None
      | keys ->
        Some
          (Radix.build ~threads:ctx.threads ~null_as_key:false r.Relation.cols
             (List.map snd keys) ~n:(Relation.n_rows r))
    in
    let lkeys = List.map fst keys in
    let residual_check = Option.map (make_residual_check r) residual in
    (* Semi joins keep only matched rows: bloom misses are safe to drop at
       the scan. Anti joins keep exactly the misses — no pushdown. *)
    let seg =
      match (anti, tbl, lkeys, seg.transform) with
      | false, Some tbl, [ lk ], None -> (
        match Radix.scan_test tbl seg.source.Relation.cols.(lk) with
        | Some test -> { seg with prescan = seg.prescan @ [ test ] }
        | None -> seg)
      | _ -> seg
    in
    seg_then seg (chunk_semi ~anti r tbl lkeys residual_check)
  | Join { kind = JRight | JFull; _ }
  | PValues _ | Aggregate _ | Sort _ | LimitN _ | Distinct _ | Window _ ->
    (* Pipeline breaker: materialize and start a fresh segment. *)
    { source = materialize ctx p; prefilter = []; prescan = []; transform = None }

and lookup ctx name =
  (* a fired dictionary-corruption fault models a detected storage fault on
     this table's dictionary pages; Db.execute retries cleanly *)
  Faults.dict_corrupt_point ~site:("compiled.scan." ^ name);
  match Hashtbl.find_opt ctx.ctes name with
  | Some r -> r
  | None -> (
    match Catalog.find_opt ctx.catalog name with
    | Some t -> t.Catalog.rel
    | None -> invalid_arg ("Exec_compiled: unknown relation " ^ name))

(* Iterate the morsels of [seg] over rows [start, start+len), invoking
   [consume] with each surviving non-empty chunk. The fused prefilter runs on
   the source columns so only surviving rows are gathered. *)
and iter_morsels ?ztest (seg : segment) start len (consume : chunk -> unit) :
    unit =
  let transform = seg_transform seg in
  let preds =
    List.map (Eval.compile_pred seg.source.Relation.cols) seg.prefilter
  in
  let passes row =
    List.for_all (fun p -> p row) preds
    && List.for_all (fun t -> t row) seg.prescan
  in
  let pos = ref start in
  while !pos < start + len do
    (* morsel boundary: cooperative deadline / cancellation checkpoint *)
    Guard.check ();
    let step = min morsel_size (start + len - !pos) in
    let skip =
      (* zone-map morsel skipping: a morsel overlaps at most two stats
         blocks; drop it when no overlapping block can match *)
      match ztest with
      | Some t ->
        not (Stats.range_may_match t ~lo:!pos ~hi:(!pos + step - 1))
      | None -> false
    in
    if not skip then begin
      let idx =
        match (preds, seg.prescan) with
        | [], [] -> Array.init step (fun i -> !pos + i)
        | _ ->
          let buf = ref [] and count = ref 0 in
          for row = !pos + step - 1 downto !pos do
            if passes row then begin
              buf := row :: !buf;
              incr count
            end
          done;
          Array.of_list !buf
      in
      if Array.length idx > 0 then begin
        Guard.add_rows (Array.length idx);
        let chunk = Relation.take seg.source idx in
        match transform chunk with
        | Some c when Relation.n_rows c > 0 -> consume c
        | _ -> ()
      end
    end;
    pos := !pos + step
  done

(* Run a segment over its source, morsel-parallel, collecting all chunks. *)
and run_segment ctx (seg : segment) : Relation.t =
  let n = Relation.n_rows seg.source in
  let ztest = seg_zone_test ctx.catalog seg in
  let run_range start len =
    let out = ref [] in
    iter_morsels ?ztest seg start len (fun c -> out := c :: !out);
    List.rev !out
  in
  let chunk_lists =
    if n = 0 then []
    else
      (* morsel-granular scheduling: the critical path is one morsel range,
         not a 1/threads slice of the whole scan *)
      let k = Parallel.morsel_count ~threads:ctx.threads n in
      Parallel.map_list ~threads:ctx.threads
        (List.map
           (fun (start, len) () -> run_range start len)
           (Parallel.chunks ~k n))
  in
  let chunks = List.concat chunk_lists in
  match chunks with
  | [] -> (
    (* Empty result: derive the output schema by pushing an empty chunk
       through the transformer (chunk operators pass empty chunks through). *)
    let empty = Relation.take seg.source [||] in
    match (seg_transform seg) empty with
    | Some c -> c
    | None -> empty)
  | chunks -> Relation.concat ~threads:ctx.threads chunks

(* Materialize any plan to a full relation. *)
and materialize ctx (p : plan) : Relation.t =
  match p.node with
  | PValues (schema, rows) ->
    let cols =
      Array.mapi
        (fun i (_, ty) ->
          Column.of_values ty
            (Array.of_list (List.map (fun row -> List.nth row i) rows)))
        schema
    in
    if Array.length schema = 0 then
      { Relation.names = [| "dummy" |];
        cols = [| Column.const Value.TInt (Value.VInt 0) (List.length rows) |] }
    else { Relation.names = Array.map fst schema; cols }
  | Aggregate (sub, groups, specs) -> run_aggregate ctx p sub groups specs
  | Sort (sub, keys) ->
    let r = stream ctx sub in
    Relation.take r (Exec_vectorized.sort_indices r keys)
  | LimitN (sub, n) ->
    let r = stream ctx sub in
    let n = min n (Relation.n_rows r) in
    Relation.take r (Array.init n Fun.id)
  | Distinct sub ->
    let r = stream ctx sub in
    let n = Relation.n_rows r in
    let all_cols = List.init (Array.length r.Relation.cols) Fun.id in
    (* local keys: dictionary columns compare by code *)
    let kf = Hash_util.key_fn ~local:true ~null_as_key:true r.Relation.cols all_cols in
    let seen = Hashtbl.create (max 16 n) in
    let keep = ref [] in
    for row = 0 to n - 1 do
      match kf row with
      | None -> ()
      | Some k ->
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          keep := row :: !keep
        end
    done;
    Relation.take r (Array.of_list (List.rev !keep))
  | Window (sub, keys, name) ->
    let r = stream ctx sub in
    let n = Relation.n_rows r in
    let order =
      if keys = [] then Array.init n Fun.id
      else Exec_vectorized.sort_indices r keys
    in
    { Relation.names = Array.append r.Relation.names [| name |];
      cols =
        Array.append r.Relation.cols
          [| Column.of_ivec (Exec_vectorized.ranks_of order) |] }
  | Join { kind = JRight | JFull; _ } ->
    (* Rare in generated SQL; reuse the vectorized implementation. *)
    let vctx =
      { Exec_vectorized.catalog = ctx.catalog; ctes = ctx.ctes;
        threads = ctx.threads; on_rows = None }
    in
    Exec_vectorized.run vctx p
  | Scan name -> lookup ctx name
  | Filter _ | Project _ | Join _ | SemiJoin _ ->
    run_segment ctx (compile_segment ctx p)

and stream ctx (p : plan) : Relation.t = materialize ctx p

(* ------------------------------------------------------------------ *)
(* Aggregation sink                                                   *)
(* ------------------------------------------------------------------ *)

and run_aggregate ctx (p : plan) sub groups specs : Relation.t =
  (* fused kernel first: branch-free mask filtering with in-loop
     accumulation over the base columns (see {!Kernel}); identical output
     to the fold below, gated on plan shape and PYTOND_FUSE *)
  match
    Kernel.fused_aggregate ~threads:ctx.threads ~catalog:ctx.catalog
      ~lookup:(fun name -> lookup ctx name)
      p
  with
  | Some r -> r
  | None -> run_aggregate_unfused ctx p sub groups specs

and run_aggregate_unfused ctx (p : plan) sub groups specs : Relation.t =
  let specs_arr = Array.of_list specs in
  let has_distinct = List.exists (fun s -> s.distinct) specs in
  let seg = compile_segment ctx sub in
  let n = Relation.n_rows seg.source in
  let ztest = seg_zone_test ctx.catalog seg in
  match groups with
  | [] ->
    let fold_range start len =
      let accs = Array.map Agg_util.create specs_arr in
      let n_specs = Array.length specs_arr in
      (match seg.transform with
      | None ->
        (* fused scan→filter→aggregate: no morsel materialization at all;
           zone-dead blocks drop out of the row ranges entirely *)
        let cols = seg.source.Relation.cols in
        let preds = List.map (Eval.compile_pred cols) seg.prefilter in
        let upds = Agg_util.update_fns specs_arr cols in
        List.iter
          (fun (lo, hi) ->
            for row = lo to hi do
              (* the fused loop has no morsel boundary: check every ~8K rows *)
              if (row - lo) land 8191 = 0 then Guard.check ();
              if
                List.for_all (fun p -> p row) preds
                && List.for_all (fun t -> t row) seg.prescan
              then
                for i = 0 to n_specs - 1 do
                  upds.(i) accs.(i) row
                done
            done)
          (alive_ranges ztest start (start + len - 1))
      | Some _ ->
        iter_morsels ?ztest seg start len (fun c ->
            let upds = Agg_util.update_fns specs_arr c.Relation.cols in
            for row = 0 to Relation.n_rows c - 1 do
              for i = 0 to n_specs - 1 do
                upds.(i) accs.(i) row
              done
            done));
      accs
    in
    let partials =
      if n = 0 then [ fold_range 0 0 ]
      else
        Parallel.map_chunks
          ~threads:(if has_distinct then 1 else ctx.threads)
          n fold_range
    in
    let accs =
      match partials with
      | [] -> Array.map Agg_util.create specs_arr
      | first :: rest ->
        List.iter
          (fun part ->
            Array.iteri
              (fun i spec -> Agg_util.merge spec first.(i) part.(i))
              specs_arr)
          rest;
        first
    in
    let out_vals =
      Array.mapi (fun i spec -> Agg_util.finish spec accs.(i)) specs_arr
    in
    { Relation.names = Array.map fst p.schema;
      cols =
        Array.mapi
          (fun i (_, ty) -> Column.of_values ty [| out_vals.(i) |])
          p.schema }
  | groups ->
    let n_groups = List.length groups in
    let n_specs = Array.length specs_arr in
    let fold_range start len =
      let tbl : (Hash_util.key, Value.t array * Agg_util.acc array) Hashtbl.t =
        Hashtbl.create 1024
      in
      (* first-seen key order (reversed); groups are emitted in input order so
         the output is identical whichever pipeline shape (fused morsels vs a
         materialized breaker source) fed the aggregate *)
      let order : Hash_util.key list ref = ref [] in
      (* Direct-indexed accumulators for small packed key domains; shared
         across the chunks of this range (the packed domain is chunk-stable
         by construction, see [consume_chunk]). Slot state is unboxed
         int/float arrays where the spec shape allows (see
         {!Agg_util.dense}); group values are captured once per slot. *)
      let gslots :
          (Value.t array option array * Agg_util.slot_state array) option ref =
        ref None
      in
      let consume_rows cols kf lo hi passes =
        let upds = Agg_util.update_fns specs_arr cols in
        for row = lo to hi do
          if (row - lo) land 8191 = 0 then Guard.check ();
          if passes row then
            match kf row with
            | None -> ()
            | Some k ->
              let _, accs =
                match Hashtbl.find_opt tbl k with
                | Some entry -> entry
                | None ->
                  let gvals =
                    Array.of_list
                      (List.map (fun g -> Column.get cols.(g) row) groups)
                  in
                  let entry = (gvals, Array.map Agg_util.create specs_arr) in
                  Hashtbl.add tbl k entry;
                  order := k :: !order;
                  entry
              in
              for i = 0 to n_specs - 1 do
                upds.(i) accs.(i) row
              done
        done
      in
      (* [cross_chunk] matters twice over: the packed keys seed the partial
         table merged across ranges below, and the dense slot array persists
         across the chunks of one range — both need chunk-stable
         encodings. *)
      let consume_chunk ~cross_chunk cols lo hi passes =
        match
          Hash_util.dense_domain ~cross_chunk ~limit:(1 lsl 16) cols groups
        with
        | Some (pack, card)
          when (match !gslots with
               | Some (gv, _) -> Array.length gv = card
               | None -> true) ->
          let gvals, states =
            match !gslots with
            | Some gs -> gs
            | None ->
              let gs =
                ( Array.make card None,
                  Agg_util.slot_states specs_arr cols ~card )
              in
              gslots := Some gs;
              gs
          in
          (* updaters are rebuilt per chunk (chunk columns are distinct
             gathers); the slot arrays they write persist across chunks *)
          let upds = Agg_util.slot_updates specs_arr cols states in
          for row = lo to hi do
            if (row - lo) land 8191 = 0 then Guard.check ();
            if passes row then begin
              let k = pack row in
              (match gvals.(k) with
              | Some _ -> ()
              | None ->
                gvals.(k) <-
                  Some
                    (Array.of_list
                       (List.map (fun g -> Column.get cols.(g) row) groups));
                order := Hash_util.KInt k :: !order);
              for i = 0 to n_specs - 1 do
                upds.(i) k row
              done
            end
          done
        | _ ->
          let kf =
            Hash_util.key_fn ~local:true ~cross_chunk ~null_as_key:true cols
              groups
          in
          consume_rows cols kf lo hi passes
      in
      (match seg.transform with
      | None ->
        (* group chunks all view the same base columns (and thus the same
           dictionaries), so dictionary codes — and int bounds — are valid
           keys across the partial tables merged below *)
        let cols = seg.source.Relation.cols in
        let preds = List.map (Eval.compile_pred cols) seg.prefilter in
        List.iter
          (fun (lo, hi) ->
            consume_chunk ~cross_chunk:false cols lo hi (fun row ->
                List.for_all (fun p -> p row) preds
                && List.for_all (fun t -> t row) seg.prescan))
          (alive_ranges ztest start (start + len - 1))
      | Some _ ->
        iter_morsels ?ztest seg start len (fun c ->
            (* chunk columns are gathers of the same base columns, so their
               dictionaries (and codes) agree across chunks and domains;
               cross_chunk keeps data-dependent (per-gather) key encodings
               out of the shared tables *)
            consume_chunk ~cross_chunk:true c.Relation.cols 0
              (Relation.n_rows c - 1)
              (fun _ -> true)));
      (* fold the dense slots into the hash table keyed by packed slot;
         unboxed slots are reboxed once per group here, never per row *)
      (match !gslots with
      | Some (gvals, states) ->
        Array.iteri
          (fun k gv ->
            match gv with
            | Some gv ->
              let accs =
                Array.mapi
                  (fun i spec -> Agg_util.slot_to_acc spec states.(i) k)
                  specs_arr
              in
              Hashtbl.replace tbl (Hash_util.KInt k) (gv, accs)
            | None -> ())
          gvals
      | None -> ());
      (tbl, List.rev !order)
    in
    (* radix partition fold: rows arrive as a base-row selection vector over
       the materialized source; group keys are disjoint across partitions,
       so the partial merge below only ever adds *)
    let fold_sel (sel : int array) =
      let tbl : (Hash_util.key, Value.t array * Agg_util.acc array) Hashtbl.t =
        Hashtbl.create 1024
      in
      let order : Hash_util.key list ref = ref [] in
      let cols = seg.source.Relation.cols in
      let preds = List.map (Eval.compile_pred cols) seg.prefilter in
      let kf =
        Hash_util.key_fn ~local:true ~cross_chunk:false ~null_as_key:true cols
          groups
      in
      let upds = Agg_util.update_fns specs_arr cols in
      Array.iteri
        (fun i row ->
          if i land 8191 = 0 then Guard.check ();
          if
            List.for_all (fun p -> p row) preds
            && List.for_all (fun t -> t row) seg.prescan
          then
            match kf row with
            | None -> ()
            | Some k ->
              let _, accs =
                match Hashtbl.find_opt tbl k with
                | Some entry -> entry
                | None ->
                  let gvals =
                    Array.of_list
                      (List.map (fun g -> Column.get cols.(g) row) groups)
                  in
                  let entry = (gvals, Array.map Agg_util.create specs_arr) in
                  Hashtbl.add tbl k entry;
                  order := k :: !order;
                  entry
              in
              for s = 0 to n_specs - 1 do
                upds.(s) accs.(s) row
              done)
        sel;
      (tbl, List.rev !order)
    in
    (* radix aggregation applies to a materialized source (a pipeline
       breaker's output, e.g. a partition-wise join) whose group domain is
       too wide for the dense slot path; fused pipelines keep the chunked
       partial scheme — their rows never materialize *)
    let radix_parts =
      match (seg.transform, ztest) with
      | None, None when not has_distinct ->
        let cols = seg.source.Relation.cols in
        if
          Hash_util.dense_domain ~cross_chunk:false ~limit:(1 lsl 16) cols
            groups
          <> None
        then None
        else Radix.group_parts ~threads:ctx.threads cols groups ~n
      | _ -> None
    in
    let partials =
      match radix_parts with
      | Some parts ->
        Parallel.map_list ~threads:ctx.threads
          (List.map (fun sel () -> fold_sel sel) (Array.to_list parts))
      | None ->
        if n = 0 then [ fold_range 0 0 ]
        else
          Parallel.map_chunks
            ~threads:(if has_distinct then 1 else ctx.threads)
            n fold_range
    in
    (* merge partials in chunk order, walking each partial's first-seen list:
       chunks are contiguous in input order, so the merged order is the
       global first-seen order — independent of chunk boundaries *)
    let tbl, order =
      match partials with
      | [] -> (Hashtbl.create 1, [])
      | (first, ord0) :: rest ->
        let order = ref (List.rev ord0) in
        List.iter
          (fun (part, ord) ->
            List.iter
              (fun k ->
                match Hashtbl.find_opt part k with
                | None -> ()
                | Some (gvals, accs) -> (
                  match Hashtbl.find_opt first k with
                  | Some (_, main_accs) ->
                    Array.iteri
                      (fun i spec ->
                        Agg_util.merge spec main_accs.(i) accs.(i))
                      specs_arr
                  | None ->
                    Hashtbl.add first k (gvals, accs);
                    order := k :: !order))
              ord)
          rest;
        (first, List.rev !order)
    in
    let n_out = Hashtbl.length tbl in
    let out =
      Array.make_matrix (n_groups + Array.length specs_arr) n_out Value.VNull
    in
    let k = ref 0 in
    List.iter
      (fun key ->
        (* remove as we emit: a key can appear twice in [order] only if two
           consumption paths collided on it, and it must emit exactly once *)
        match Hashtbl.find_opt tbl key with
        | None -> ()
        | Some (gvals, accs) ->
          Hashtbl.remove tbl key;
          Array.iteri (fun g v -> out.(g).(!k) <- v) gvals;
          Array.iteri
            (fun i spec ->
              out.(n_groups + i).(!k) <- Agg_util.finish spec accs.(i))
            specs_arr;
          incr k)
      order;
    { Relation.names = Array.map fst p.schema;
      cols = Array.mapi (fun i (_, ty) -> Column.of_values ty out.(i)) p.schema }

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let run_query ?(threads = 1) (catalog : Catalog.t) (bq : bound_query) :
    Relation.t =
  let ctx = { catalog; ctes = Hashtbl.create 8; threads } in
  List.iter
    (fun (name, plan) ->
      let r = stream ctx plan in
      let r = Relation.rename r (Array.map fst plan.Plan.schema) in
      Hashtbl.replace ctx.ctes name r)
    bq.ctes;
  let r = stream ctx bq.main in
  Relation.rename r (Array.map fst bq.main.Plan.schema)

(** Run a bare plan subtree (no CTEs) — the compiled-engine counterpart of
    [Exec_vectorized.run_plan]; the Matview differential tests cross-check
    delta streams through both executors. *)
let run_plan ?threads (catalog : Catalog.t) (p : Plan.plan) : Relation.t =
  run_query ?threads catalog { Plan.ctes = []; main = p }
