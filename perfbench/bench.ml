(* The repository benchmark: one process runs one workload, checks every
   result against an independent reference, and prints every metric by
   name with its unit; the last line of stdout is one JSON object.

     bench.exe --workload tpch_t1|tpch_t2|service|ds --seed N --seconds S
               --trace 0|1

   --trace 0 reports the end-to-end metrics with tracing off; --trace 1 is
   the separate traced run that reports per-layer metrics. README.md in
   this directory explains each workload and metric. *)

open Sqldb
module Passes = Optimizer.Passes

let now = Unix.gettimeofday

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Statistics                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank quantile: the [rank q n]-th smallest sample *)
let rank q n = max 1 (min n (int_of_float (Float.ceil ((q *. float n) -. 1e-9))))

let quantile q xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank q n - 1)

let sum xs = List.fold_left ( +. ) 0. xs

let geomean xs =
  exp (sum (List.map log xs) /. float (max 1 (List.length xs)))

(* The mean of the samples beyond quantile [q]. Where a workload's samples
   fall in clusters, one per program, the quantile jumps from one cluster
   to the next as samples move; this mean moves by a fraction of the jump. *)
let tail_mean q xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = rank q n in
  if k >= n then nan
  else begin
    let s = ref 0. in
    for i = k to n - 1 do
      s := !s +. a.(i)
    done;
    !s /. float (n - k)
  end

(* Whether quantile [q] of [n] samples has at least ten samples beyond it. *)
let supported q n = n - rank q n >= 10

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
          float kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Options                                                            *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "tpch_t1|tpch_t2|service|ds");
      ("--seed", Arg.Set_int seed, "N  seed for data and request draws");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1"

let traced = !trace = 1
let rng salt = Random.State.make [| !seed; salt |]

(* ------------------------------------------------------------------ *)
(* Correctness                                                        *)
(* ------------------------------------------------------------------ *)

(* The differential tests' tolerance: canonical rows at 3 decimals, float
   cells within one unit of the last decimal plus 1e-6 relative (parallel
   sums depend on chunking), and SUM over an empty selection is 0.0 in
   pandas but NULL in SQL. *)
let canon rel =
  match Relation.canonical ~digits:3 rel with
  | [ "NULL" ] -> [ "0.000" ]
  | rows -> rows

let same_rows (expected : Relation.t) (actual : Relation.t) =
  let close a b =
    String.equal a b
    ||
    match (float_of_string_opt a, float_of_string_opt b) with
    | Some x, Some y ->
      Float.abs (x -. y)
      <= 1.6e-3 +. (1e-6 *. Float.max (Float.abs x) (Float.abs y))
    | _ -> false
  in
  let row_close ra rb =
    let ca = String.split_on_char '|' ra and cb = String.split_on_char '|' rb in
    List.length ca = List.length cb && List.for_all2 close ca cb
  in
  let e = canon expected and a = canon actual in
  List.length e = List.length a && List.for_all2 row_close e a

let attempted = ref 0
let failed = ref 0
let problems = ref []

let note_failure what =
  incr failed;
  if List.length !problems < 20 then problems := what :: !problems

(* Count one checked operation. *)
let check what ok =
  incr attempted;
  if not ok then note_failure what

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                    *)
(* ------------------------------------------------------------------ *)

type prog = { pname : string; source : string; db : Db.t }

(* A table that receives the service's appends, with its unique integer
   key (appended rows get fresh keys so the key stays unique). *)
type target = { tdb : Db.t; table : string; key : string }

(* The programs of a workload; the appended tables and the dashboards
   registered as views exist on the service only. *)
type world = {
  progs : prog list;
  targets : target list;
  dashboards : (string * Db.t * string) list; (* view name, db, SQL *)
}

let dialect = function Db.Compiled -> "hyper" | _ -> "duckdb"

let compile ?(backend = Db.Vectorized) db source =
  Pytond.compile ~dialect:(dialect backend) ~db ~source ~fname:"query" ()

(* Generate and ingest at the workload's thread count; [only] keeps a
   subset of the programs. Returns the world and the two phase times. *)
let setup_tpch ?only ~sf ~threads () =
  let t0 = now () in
  let tables =
    Trace.span "dbgen.generate" (fun () ->
        Tpch.Dbgen.generate ~seed:!seed ~threads sf)
  in
  let t1 = now () in
  let db = Db.create () in
  Trace.span "dbgen.load" (fun () -> Tpch.Dbgen.load ~threads db tables);
  let t2 = now () in
  let progs =
    List.filter_map
      (fun (pname, source) ->
        match only with
        | Some names when not (List.mem pname names) -> None
        | _ -> Some { pname; source; db })
      Tpch.Queries.all
  in
  ({ progs; targets = []; dashboards = [] }, t1 -. t0, t2 -. t1)

let covar_rows = 20_000
let covar_cols = 16
let covar_sparsity = 0.05

(* The baseline returns the covariance as a dense (id, c0..) matrix; the
   sparse program returns (j, k, value) triples of its non-zero cells. *)
let triples_of_dense (r : Relation.t) =
  let js = ref [] and ks = ref [] and vs = ref [] in
  for i = Relation.n_rows r - 1 downto 0 do
    let row = Relation.row r i in
    for k = Array.length row - 1 downto 1 do
      let v = Value.as_float row.(k) in
      if v <> 0. then begin
        js := (Value.as_int row.(0) - 1) :: !js;
        ks := (k - 1) :: !ks;
        vs := v :: !vs
      end
    done
  done;
  let arr l = Array.of_list l in
  Relation.create [| "j"; "k"; "v" |]
    [| Column.of_ints (arr !js); Column.of_ints (arr !ks); Column.of_floats (arr !vs) |]

(* The data-science generators use fixed internal seeds, so --seed does
   not vary their data. They generate and ingest in one call; the load
   phase re-ingests every generated table into the catalog the programs
   run on, which is the ingest layer on its own. *)
let setup_ds () =
  let t0 = now () in
  let staged =
    Trace.span "dbgen.generate" (fun () ->
        let covar sparsity =
          let db = Db.create () in
          Workloads.load_covar db ~rows:covar_rows ~cols:covar_cols ~sparsity;
          db
        in
        List.map
          (fun (name, load, source) ->
            let db = Db.create () in
            load db;
            (name, source, db))
          Workloads.all
        @ [ ("covar_dense", Workloads.covar_dense_src, covar 1.0);
            ("covar_sparse", Workloads.covar_sparse_src, covar covar_sparsity) ])
  in
  let t1 = now () in
  let progs =
    Trace.span "dbgen.load" (fun () ->
        List.map
          (fun (pname, source, staged_db) ->
            let db = Db.create () in
            let cat = Db.catalog staged_db in
            List.iter
              (fun name ->
                let t = Catalog.find cat name in
                Db.load_table ~cons:t.Catalog.cons db name t.Catalog.rel)
              (Catalog.names cat);
            { pname; source; db })
          staged)
  in
  let t2 = now () in
  ({ progs; targets = []; dashboards = [] }, t1 -. t0, t2 -. t1)

(* The service's Python request templates and the literals each request
   redraws; tpch_t2 runs the same six programs. *)
let service_templates = [ "q1"; "q3"; "q6"; "q12"; "q14"; "q19" ]

let setup_service ~sf () =
  let w, g, l = setup_tpch ~only:service_templates ~sf ~threads:1 () in
  let db = (List.hd w.progs).db in
  ( { w with
      targets =
        [ { tdb = db; table = "lineitem"; key = "l_orderkey" };
          { tdb = db; table = "orders"; key = "o_orderkey" } ];
      dashboards =
        List.map
          (fun q -> ("dash_" ^ q, db, compile db (Tpch.Queries.find q)))
          [ "q1"; "q6" ] },
    g,
    l )

(* ------------------------------------------------------------------ *)
(* Program passes: compile + execute every program on both backends   *)
(* ------------------------------------------------------------------ *)

(* A timed sample: its wall time and the reference time it is divided by
   (see hostref.ml), both in seconds. *)
type sample = { wall : float; ref_s : float }

type samples = {
  mutable vec_s : sample list;
  mutable comp_s : sample list;
  mutable py_s : sample list;
}

let new_samples () = { vec_s = []; comp_s = []; py_s = [] }

(* Gated times are in reference units: wall time over reference time. *)
let rel s = s.wall /. s.ref_s
let walls l = List.map (fun s -> s.wall) l
let rels l = List.map rel l

(* The samples of one pass wait for its reference time: the mean of the
   kernels timed in it, one before each program, on as many domains as
   the program runs use. The mean, not the median: when other tenants take
   the CPU away for a few milliseconds at a time, only some kernels are
   hit, and the mean charges them in the share the program's longer runs
   are. *)
type pass = { domains : int; mutable kernels : float list; mutable pending : (float -> unit) list }

let new_pass ~domains = { domains; kernels = []; pending = [] }
let time_kernel pass = pass.kernels <- Hostref.time ~domains:pass.domains :: pass.kernels
let record pass wall add = pass.pending <- (fun ref_s -> add { wall; ref_s }) :: pass.pending

let mean xs = sum xs /. float (List.length xs)

let close_pass pass =
  let c = mean pass.kernels in
  List.iter (fun f -> f c) pass.pending;
  c

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let backends_for_round r =
  if r mod 2 = 0 then [ Db.Vectorized; Db.Compiled ]
  else [ Db.Compiled; Db.Vectorized ]

let backend_tag = function Db.Compiled -> "comp" | _ -> "vec"

(* The baseline interpreter on every program: the reference results, and
   one python sample per program. The interpreter runs on one domain. *)
let reference_pass progs samples =
  let pass = new_pass ~domains:1 in
  let refs =
    List.map
      (fun p ->
        time_kernel pass;
        let t0 = now () in
        let r =
          Trace.span "interp" (fun () ->
              Pytond.run_python ~db:p.db ~source:p.source ~fname:"query" ())
        in
        let s = Hashtbl.find samples p.pname in
        record pass (now () -. t0) (fun x -> s.py_s <- x :: s.py_s);
        let r = if p.pname = "covar_sparse" then triples_of_dense r else r in
        (p.pname, r))
      progs
  in
  ignore (close_pass pass);
  refs

(* One untraced pass (Pytond.compile then Db.execute: exactly Pytond.run,
   split so compile time is seen). Returns the pass's compile time, summed
   over its programs and backends, and the relations by (program,
   backend). *)
let untraced_pass ~threads ~round ~python ~order refs samples =
  let compile_s = ref 0. and out = ref [] in
  let pass = new_pass ~domains:threads in
  List.iter
    (fun p ->
      let s = Hashtbl.find samples p.pname in
      time_kernel pass;
      List.iter
        (fun backend ->
          let what = Printf.sprintf "%s/%s" p.pname (backend_tag backend) in
          match
            let t0 = now () in
            let sql = compile ~backend p.db p.source in
            let t1 = now () in
            let r = Db.execute ~threads ~backend p.db sql in
            (t0, t1, now (), r)
          with
          | t0, t1, t2, r ->
            compile_s := !compile_s +. (t1 -. t0);
            (match backend with
            | Db.Compiled -> record pass (t2 -. t0) (fun x -> s.comp_s <- x :: s.comp_s)
            | _ -> record pass (t2 -. t0) (fun x -> s.vec_s <- x :: s.vec_s));
            check (what ^ " differs from the baseline")
              (same_rows (List.assoc p.pname refs) r);
            out := ((p.pname, backend), r) :: !out
          | exception e -> check (what ^ ": " ^ Printexc.to_string e) false)
        (backends_for_round round);
      if python then begin
        let t0 = now () in
        match Pytond.run_python ~db:p.db ~source:p.source ~fname:"query" () with
        | _ -> record pass (now () -. t0) (fun x -> s.py_s <- x :: s.py_s)
        | exception e ->
          check (p.pname ^ "/python: " ^ Printexc.to_string e) false
      end)
    order;
  let c = close_pass pass in
  ({ wall = !compile_s; ref_s = c }, !out)

(* ------------------------------------------------------------------ *)
(* Traced pass: the same pipeline, one public layer call at a time    *)
(* ------------------------------------------------------------------ *)

let rec plan_nodes (p : Plan.plan) =
  1
  +
  match p.Plan.node with
  | Plan.Scan _ | Plan.PValues _ -> 0
  | Plan.Filter (s, _)
  | Plan.Project (s, _)
  | Plan.Aggregate (s, _, _)
  | Plan.Sort (s, _)
  | Plan.LimitN (s, _)
  | Plan.Distinct s
  | Plan.Window (s, _, _) -> plan_nodes s
  | Plan.Join { left; right; _ } | Plan.SemiJoin { left; right; _ } ->
    plan_nodes left + plan_nodes right

(* Summed over one backend's traced executions. *)
type exec_counters = {
  mutable minor_words : float; (* allocated by the calling domain *)
  mutable majors : int;
  mutable cpu : float; (* process CPU seconds, every domain *)
  mutable exec_wall : float;
}

(* Vectorized-dialect sizes, summed over the programs of every traced pass. *)
type sizes = {
  mutable ir_rules : int;
  mutable opt_rules : int;
  mutable sql_bytes : int;
  mutable nodes : int;
}

(* Recompose Pytond.run from its layers, each call under a span. The SQL
   must be byte-identical to Pytond.compile's and the relation equal to the
   untraced Pytond.run's; any mismatch fails the run. Returns the wall time
   of the recomposed pipeline; with Trace.enabled off the spans cost
   nothing, which gives the tracing overhead. Counters and sizes are only
   added up while tracing. *)
let traced_run ~threads ~backend ~counters ~sizes p (untraced : Relation.t) =
  let dialect = dialect backend in
  (* inline_rules names fresh variables from a global counter: start both
     compilations from the same value so their SQL can be compared *)
  let c0 = !Passes.fresh_counter in
  let expected_sql =
    Pytond.compile ~dialect ~db:p.db ~source:p.source ~fname:"query" ()
  in
  Passes.fresh_counter := c0;
  let tag = p.pname ^ "/" ^ backend_tag backend in
  let record = !Trace.enabled in
  let t_start = now () in
  let r =
    Trace.request ("request " ^ tag) (fun () ->
        let f =
          Trace.span "frontend" (fun () ->
              let m = Frontend.Parser.parse_module p.source in
              Frontend.Anf.normalize_func_def (Pytond.find_function m "query"))
        in
        let ir =
          Trace.span "translate" (fun () ->
              let base = Translate.Context.of_catalog (Db.catalog p.db) in
              let ctx =
                match Pytond.decorator_of f with
                | Some d -> Translate.Context.of_decorator ~base d
                | None -> base
              in
              Translate.Pandas_tr.translate ~ctx f)
        in
        let octx = Pytond.uniqueness_of_catalog (Db.catalog p.db) in
        (* Passes.optimize's O4 order *)
        let pass name f ir = Trace.span ("optimizer." ^ name) (fun () -> f ir) in
        let opt =
          Trace.span "optimizer" (fun () ->
              ir
              |> pass "global_dce" Passes.global_dce
              |> pass "group_agg_elim" (Passes.group_agg_elim octx)
              |> pass "self_join_elim" (Passes.self_join_elim octx)
              |> pass "global_dce" Passes.global_dce
              |> pass "inline_rules" Passes.inline_rules
              |> pass "global_dce" Passes.global_dce)
        in
        let sql =
          Trace.span "sqlgen" (fun () ->
              Sqlgen.Gen.generate
                ~dialect:(Sql_print.dialect_of_name dialect)
                ~base_columns:(Pytond.base_columns_of_db p.db)
                opt)
        in
        if not (String.equal sql expected_sql) then
          die "%s: traced SQL differs from Pytond.compile" tag;
        let cat = Catalog.pin (Db.catalog p.db) in
        let ast = Trace.span "sql_parse" (fun () -> Sql_parse.parse sql) in
        let bq = Trace.span "planner" (fun () -> Planner.plan_query cat ast) in
        let w0 = Gc.minor_words () in
        let g0 = (Gc.quick_stat ()).Gc.major_collections in
        let c0 = Unix.times () in
        let t0 = now () in
        let r =
          match backend with
          | Db.Compiled ->
            Trace.span "exec_compiled" (fun () ->
                Exec_compiled.run_query ~threads cat bq)
          | _ ->
            Trace.span "exec_vectorized" (fun () ->
                Exec_vectorized.run_query ~threads cat bq)
        in
        let t1 = now () in
        let c1 = Unix.times () in
        if record then begin
          counters.minor_words <- counters.minor_words +. (Gc.minor_words () -. w0);
          counters.majors <-
            counters.majors + ((Gc.quick_stat ()).Gc.major_collections - g0);
          counters.cpu <-
            counters.cpu
            +. (c1.Unix.tms_utime +. c1.Unix.tms_stime)
            -. (c0.Unix.tms_utime +. c0.Unix.tms_stime);
          counters.exec_wall <- counters.exec_wall +. (t1 -. t0)
        end;
        if record && backend = Db.Vectorized then begin
          sizes.ir_rules <- sizes.ir_rules + List.length ir.Tondir.Ir.rules;
          sizes.opt_rules <- sizes.opt_rules + List.length opt.Tondir.Ir.rules;
          sizes.sql_bytes <- sizes.sql_bytes + String.length sql;
          sizes.nodes <-
            sizes.nodes
            + List.fold_left (fun n (_, p) -> n + plan_nodes p) 0 bq.Plan.ctes
            + plan_nodes bq.Plan.main
        end;
        r)
  in
  let wall = now () -. t_start in
  if Relation.canonical ~digits:6 r <> Relation.canonical ~digits:6 untraced then
    die "%s: traced relation differs from Pytond.run" tag;
  wall

(* ------------------------------------------------------------------ *)
(* Requests through the in-process server                             *)
(* ------------------------------------------------------------------ *)

type request =
  | Py of { source : string; db : Db.t }
  | Sql of { db : Db.t; sql : string }
  | View of { db : Db.t; name : string }
  | Append of { db : Db.t; table : string; rows : Relation.t }
  | Reference  (* the host-speed kernel, timed on the worker *)

(* The time of the last [Reference] request. *)
let reference_s = Atomic.make nan

let status_rel msg =
  Relation.create [| "status" |] [| Column.of_strings [| msg |] |]

(* Primary engine: compiled; fallback: the interpreter for programs and
   the vectorized engine for raw SQL, as in bin/pytond_server. *)
let exec_request ~(tenant : Tenant.t) ~fallback req =
  let pol = tenant.Tenant.policy in
  let owner = tenant.Tenant.name in
  let cache_quota = pol.Tenant.cache_quota in
  let plan_quota = Tenant.effective_plan_quota pol in
  match req with
  | Py { source; db; _ } ->
    if fallback then Pytond.run_python ~db ~source ~fname:"query" ()
    else
      let sql = compile ~backend:Db.Compiled db source in
      Db.execute ~backend:Db.Compiled ~owner ?cache_quota ?plan_quota db sql
  | Sql { db; sql } ->
    let backend = if fallback then Db.Vectorized else Db.Compiled in
    Db.execute ~backend ~owner ?cache_quota ?plan_quota db sql
  | View { db; name } ->
    Trace.span "matview.read" (fun () -> Db.refresh ~owner db name)
  | Append { db; table; rows } ->
    Trace.span "append" (fun () -> Db.append_table db table rows);
    status_rel "appended"
  | Reference ->
    Atomic.set reference_s (Hostref.time_with_churn ());
    status_rel "timed"

(* Rows sampled from [t.table] with fresh, unique keys. *)
let append_batch st (t : target) next_key n =
  let rel = Catalog.relation (Db.catalog t.tdb) t.table in
  let idx =
    Array.init n (fun _ -> Random.State.int st (Relation.n_rows rel))
  in
  let batch = Relation.take rel idx in
  let k0 = Atomic.fetch_and_add next_key n in
  let cols =
    Array.mapi
      (fun i c ->
        if String.equal batch.Relation.names.(i) t.key then
          Column.of_ints (Array.init n (fun j -> k0 + j))
        else c)
      batch.Relation.cols
  in
  Relation.create batch.Relation.names cols

let max_key (t : target) =
  let c = Relation.column (Catalog.relation (Db.catalog t.tdb) t.table) t.key in
  let m = ref 0 in
  for i = 0 to Column.length c - 1 do
    m := max !m (Column.int_at c i)
  done;
  !m

type outcome = {
  kind : string; (* request kind: python, sql, view or append *)
  write : bool;
  latency : float; (* submit to response, seconds *)
  queued : float; (* admission to start, seconds *)
  ok : bool;
  oref_s : float; (* reference time of its window, seconds *)
}

(* A closed loop: one thread per state in [states], each submitting its
   next request only after the previous reply. [draw st] gives (tenant,
   request); [more count] says whether a caller that has sent [count]
   continues.
   The callers are threads of the main domain, not domains of their own:
   they mostly wait, and extra domains on a small host would compete
   with the workers at every stop-the-world collection. *)
let closed_loop server ~states ~draw ~more =
  let callers = Array.length states in
  let results = Array.make callers [] in
  let caller i =
    let st = states.(i) in
    let acc = ref [] and n = ref 0 in
    while more !n do
      let tenant, req = draw st in
      let kind =
        match req with
        | Py _ -> "python"
        | Sql _ -> "sql"
        | View _ -> "view"
        | Append _ -> "append"
        | Reference -> "reference"
      in
      let write = kind = "append" in
      let t0 = now () in
      let r = Server.submit server ~tenant req in
      let latency = now () -. t0 in
      incr n;
      acc :=
        (match r with
        | Ok o ->
          { kind; write; latency; queued = o.Server.queued_ms /. 1000.; ok = true;
            oref_s = nan }
        | Error _ -> { kind; write; latency; queued = 0.; ok = false; oref_s = nan })
        :: !acc
    done;
    results.(i) <- !acc
  in
  List.iter Thread.join (List.init callers (Thread.create caller));
  List.concat (Array.to_list results)

(* ------------------------------------------------------------------ *)
(* Service request mix                                                *)
(* ------------------------------------------------------------------ *)

(* Replace every occurrence of each [sub] in one left-to-right pass, so a
   replacement is never itself rewritten; every [sub] must occur. *)
let substitute s (subs : (string * string) list) =
  let ls = String.length s in
  let b = Buffer.create ls in
  let found = Hashtbl.create 8 in
  let at i sub =
    let n = String.length sub in
    i + n <= ls && String.equal (String.sub s i n) sub
  in
  let rec go i =
    if i < ls then
      match List.find_opt (fun (sub, _) -> at i sub) subs with
      | Some (sub, by) ->
        Hashtbl.replace found sub ();
        Buffer.add_string b by;
        go (i + String.length sub)
      | None ->
        Buffer.add_char b s.[i];
        go (i + 1)
  in
  go 0;
  List.iter
    (fun (sub, _) ->
      if not (Hashtbl.mem found sub) then die "template literal %S not found" sub)
    subs;
  Buffer.contents b

(* Literal substitutions that redraw a template's constants. *)
let draw_constants st tpl : (string * string) list =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let year lo hi = let y = int lo hi in (y, y + 1) in
  match tpl with
  | "q1" -> [ ("'1998-09-02'", Printf.sprintf "'1998-%02d-%02d'" (int 6 9) (int 1 28)) ]
  | "q3" ->
    [ ("'BUILDING'",
       pick [| "'AUTOMOBILE'"; "'BUILDING'"; "'FURNITURE'"; "'MACHINERY'";
               "'HOUSEHOLD'" |]);
      ("'1995-03-15'", Printf.sprintf "'1995-03-%02d'" (int 1 28)) ]
  | "q6" ->
    let y0, y1 = year 1993 1997 and d = int 2 9 in
    [ ("'1994-01-01'", Printf.sprintf "'%d-01-01'" y0);
      ("'1995-01-01'", Printf.sprintf "'%d-01-01'" y1);
      ("0.05", Printf.sprintf "0.%02d" (d - 1));
      ("0.07", Printf.sprintf "0.%02d" (d + 1));
      ("< 24", Printf.sprintf "< %d" (int 20 30)) ]
  | "q12" ->
    let modes = [| "MAIL"; "SHIP"; "AIR"; "RAIL"; "TRUCK"; "FOB"; "REG AIR" |] in
    let i = Random.State.int st 7 in
    let j = (i + 1 + Random.State.int st 6) mod 7 in
    let y0, y1 = year 1993 1997 in
    [ ("'MAIL', 'SHIP'", Printf.sprintf "'%s', '%s'" modes.(i) modes.(j));
      ("'1994-01-01'", Printf.sprintf "'%d-01-01'" y0);
      ("'1995-01-01'", Printf.sprintf "'%d-01-01'" y1) ]
  | "q14" ->
    let m = int 1 11 in
    [ ("'1995-09-01'", Printf.sprintf "'1995-%02d-01'" m);
      ("'1995-10-01'", Printf.sprintf "'1995-%02d-01'" (m + 1)) ]
  | "q19" ->
    let brand () = Printf.sprintf "'Brand#%d%d'" (int 1 5) (int 1 5) in
    [ ("'Brand#12'", brand ()); ("'Brand#23'", brand ()); ("'Brand#34'", brand ()) ]
  | _ -> []

let sql_templates =
  [ ( "sql_scan",
      fun st ->
        Printf.sprintf
          "SELECT l_returnflag, SUM(l_extendedprice) AS s FROM lineitem \
           WHERE l_quantity < %d.0 GROUP BY l_returnflag"
          (10 + Random.State.int st 31) );
    ( "sql_count",
      fun st ->
        Printf.sprintf "SELECT COUNT(*) AS c FROM orders WHERE o_totalprice > %d.0"
          (1000 * (1 + Random.State.int st 300)) );
    ( "sql_join",
      fun st ->
        Printf.sprintf
          "SELECT n_name, COUNT(*) AS c FROM customer JOIN nation ON \
           c_nationkey = n_nationkey WHERE c_acctbal > %d.0 GROUP BY n_name"
          (Random.State.int st 9000) ) ]

let tenants =
  [ ("acme", Tenant.default_policy);
    ( "globex",
      { Tenant.default_policy with
        Tenant.max_in_flight = 2;
        cache_quota = Some 16;
        plan_quota = Some 8 } );
    ( "initech",
      { Tenant.default_policy with
        Tenant.max_in_flight = 3;
        cache_quota = Some 6;
        max_retries = 1 } ) ]

(* The service mix is a synthetic assumption, not taken from a measured
   trace. Reads and writes split 95/5 as in YCSB's read-mostly workload B;
   the three read kinds share the reads equally, appends go to either
   table with equal chance, and half of the Python requests repeat a recent
   constant set. *)
let read_kinds = [ "python"; "sql"; "view" ]
let kinds = read_kinds @ [ "append" ]
let write_share = 5 (* percent *)
let repeat_share = 50 (* percent *)
let append_rows = 16

(* Distinct requests per template, for the replay check. *)
let replay_per_template = 4

(* ------------------------------------------------------------------ *)
(* Phases                                                             *)
(* ------------------------------------------------------------------ *)

type kind = Tpch | Service | Ds

let sf_tpch = 0.1
let sf_service = 0.01

(* kind, threads, scale factor, TPC-H program subset. At two threads a pass
   over all 22 programs takes about ten seconds, too long for enough passes
   in one run, so tpch_t2 runs the six programs the service draws from. *)
let spec () =
  match !workload with
  | "tpch_t1" -> (Tpch, 1, Some sf_tpch, None)
  | "tpch_t2" -> (Tpch, 2, Some sf_tpch, Some service_templates)
  | "service" -> (Service, 1, Some sf_service, None)
  | "ds" -> (Ds, 1, None, None)
  | w -> die "unknown workload %S (tpch_t1|tpch_t2|service|ds)" w

(* Set-ups per run: at least [min_setups], and more until [setup_budget_s]
   seconds have gone, so the sub-second set-ups of service and ds get a
   median of enough samples to be steady; at most [max_setups]. *)
let min_setups = 5
let max_setups = 40
let setup_budget_s = 4.

(* The harness collects the heap between phases and passes, never inside a
   timed region, so each one starts without the garbage of the one before
   and the peak RSS does not depend on where a major cycle happened to
   fall. *)
let settle () = Gc.full_major ()

(* Set up as above; only the last world is kept, so the earlier ones can
   be collected. Returns it with the generate and load times. *)
let run_setups ?only kind ~threads =
  let setup () =
    match kind with
    | Tpch -> setup_tpch ?only ~sf:sf_tpch ~threads ()
    | Service -> setup_service ~sf:sf_service ()
    | Ds -> setup_ds ()
  in
  let world = ref None and times = ref [] in
  let t0 = now () in
  while
    List.length !times < min_setups
    || (List.length !times < max_setups && now () -. t0 < setup_budget_s)
  do
    world := None;
    settle ();
    let w, g, l = setup () in
    world := Some w;
    times := (g, l) :: !times
  done;
  let times = !times in
  settle ();
  (Option.get !world, List.map fst times, List.map snd times)

(* Engine counters summed over every database of the workload. *)
let cache_totals world =
  let dbs =
    List.fold_left
      (fun acc db -> if List.memq db acc then acc else db :: acc)
      []
      (List.map (fun p -> p.db) world.progs
      @ List.map (fun (_, db, _) -> db) world.dashboards)
  in
  let add (a : Db.cache_stats) (b : Db.cache_stats) =
    { a with
      Db.hits = a.Db.hits + b.Db.hits;
      misses = a.misses + b.misses;
      view_hits = a.view_hits + b.view_hits;
      delta_refreshes = a.delta_refreshes + b.delta_refreshes;
      view_recomputes = a.view_recomputes + b.view_recomputes;
      bind_hits = a.bind_hits + b.bind_hits;
      bind_misses = a.bind_misses + b.bind_misses;
      guard_trips = a.guard_trips + b.guard_trips }
  in
  List.fold_left
    (fun acc db -> add acc (Db.cache_stats db))
    (Db.cache_stats (Db.create ()))
    dbs

(* ------------------------------------------------------------------ *)
(* Request phase                                                      *)
(* ------------------------------------------------------------------ *)

(* Request drawing state shared by the callers. *)
type mix = {
  mworld : world;
  keys : (target * int Atomic.t) list; (* next fresh key per target *)
  seen : (string, (string * request) list) Hashtbl.t;
      (* distinct requests per template, most recent first, for replay *)
  recent : (string, (string * string) list list) Hashtbl.t;
      (* recent constant sets per Python template *)
  mlock : Mutex.t;
}

let pick st l = List.nth l (Random.State.int st (List.length l))

let remember mix tpl key req =
  Mutex.protect mix.mlock (fun () ->
      let l = Option.value ~default:[] (Hashtbl.find_opt mix.seen tpl) in
      if not (List.mem_assoc key l) then
        Hashtbl.replace mix.seen tpl
          (List.filteri (fun i _ -> i < replay_per_template) ((key, req) :: l)))

let draw_append mix st =
  let t, next = pick st mix.keys in
  Append { db = t.tdb; table = t.table; rows = append_batch st t next append_rows }

let draw_view mix st =
  let name, db, _ = pick st mix.mworld.dashboards in
  let req = View { db; name } in
  remember mix name name req;
  req

let draw_python mix st db =
  let tpl = pick st service_templates in
  let subs =
    Mutex.protect mix.mlock (fun () ->
        let r = Option.value ~default:[] (Hashtbl.find_opt mix.recent tpl) in
        if r <> [] && Random.State.int st 100 < repeat_share then pick st r
        else begin
          let s = draw_constants st tpl in
          Hashtbl.replace mix.recent tpl (List.filteri (fun i _ -> i < 8) (s :: r));
          s
        end)
  in
  let source = substitute (Tpch.Queries.find tpl) subs in
  let req = Py { source; db } in
  remember mix tpl source req;
  req

let draw_service mix st =
  let db = (List.hd mix.mworld.progs).db in
  let tenant = fst (pick st tenants) in
  let req =
    let kind =
      if Random.State.int st 100 < write_share then "append" else pick st read_kinds
    in
    match kind with
    | "python" -> draw_python mix st db
    | "sql" ->
      let name, gen = pick st sql_templates in
      let sql = gen st in
      let req = Sql { db; sql } in
      remember mix name sql req;
      req
    | "view" -> draw_view mix st
    | _ -> draw_append mix st
  in
  (tenant, req)

(* An uncached vectorized recompute on a snapshot of the final catalog. *)
let uncached db sql =
  let cache = Db.cache_enabled_now () and pc = Db.plancache_enabled_now () in
  Db.set_cache_enabled false;
  Db.set_plancache_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Db.set_cache_enabled cache;
      Db.set_plancache_enabled pc)
    (fun () -> Db.execute ~backend:Db.Vectorized (Db.snapshot db) sql)

(* Replay every remembered request through the cached path (plan cache,
   result cache, views) and compare it with an uncached recompute. *)
let replay mix =
  Hashtbl.iter
    (fun tpl reqs ->
      List.iter
        (fun (_, req) ->
          let what = "replay " ^ tpl in
          match
            match req with
            | Py { source; db; _ } ->
              let sql = compile ~backend:Db.Compiled db source in
              (Db.execute ~backend:Db.Compiled db sql, uncached db (compile db source))
            | Sql { db; sql } -> (Db.execute ~backend:Db.Compiled db sql, uncached db sql)
            | View { db; name } ->
              let _, _, sql =
                List.find (fun (n, _, _) -> n = name) mix.mworld.dashboards
              in
              (Db.refresh db name, uncached db sql)
            | Append _ | Reference -> invalid_arg "replay: only reads are replayed"
          with
          | cached, fresh ->
            check (what ^ " differs from recompute") (same_rows fresh cached)
          | exception e -> check (what ^ ": " ^ Printexc.to_string e) false)
        reqs)
    mix.seen

type requests = {
  outcomes : outcome list;
  loop_wall : float;
  loop_rel : float; (* loop_wall in reference units *)
  loop_spans : (string * float) list; (* self times of worker-side spans *)
  sstats : Server.stats;
  callers : int;
}

(* The loop runs in windows of [window_s] seconds. Between windows the
   callers stop and this domain sends [window_kernels] [Reference]
   requests: the kernel, with allocation, runs on the server's worker
   while this domain waits, as the requests do. A window's requests are
   divided by the mean of the kernels before and after it. *)
let window_s = 1.0
let window_kernels = 5

(* The service's closed loop until [deadline], then the replay check. The
   result cache is on in this phase. *)
let request_phase world ~deadline =
  Db.set_cache_enabled true;
  List.iter
    (fun (name, db, sql) ->
      match Db.register_view ~owner:"acme" db ~name sql with
      | Ok () -> ()
      | Error e -> die "register view %s: %s" name e)
    world.dashboards;
  let mix =
    { mworld = world;
      keys = List.map (fun t -> (t, Atomic.make (max_key t + 1))) world.targets;
      seen = Hashtbl.create 16;
      recent = Hashtbl.create 8;
      mlock = Mutex.create () }
  in
  let callers = 2 in
  let server = Server.create ~workers:1 ~exec:exec_request () in
  List.iter (fun (n, p) -> Server.register_tenant server n p) tenants;
  ignore (Trace.drain ());
  let states = Array.init callers (fun i -> rng (1000 + i)) in
  let burst () =
    List.init window_kernels (fun _ ->
        match Server.submit server ~tenant:"acme" Reference with
        | Ok _ -> Atomic.get reference_s
        | Error _ -> die "reference request refused")
  in
  let outcomes = ref [] and loop_wall = ref 0. and loop_rel = ref 0. in
  let c_before = ref (burst ()) in
  while now () < deadline do
    let w_end = Float.min deadline (now () +. window_s) in
    let t0 = now () in
    let os =
      closed_loop server ~states ~draw:(draw_service mix) ~more:(fun _ -> now () < w_end)
    in
    let w = now () -. t0 in
    let c_after = burst () in
    let c = mean (!c_before @ c_after) in
    c_before := c_after;
    loop_wall := !loop_wall +. w;
    loop_rel := !loop_rel +. (w /. c);
    outcomes := List.rev_append (List.map (fun o -> { o with oref_s = c }) os) !outcomes
  done;
  let outcomes = !outcomes and loop_wall = !loop_wall and loop_rel = !loop_rel in
  Server.stop server;
  let loop_spans = Trace.self_times (Trace.drain ()) in
  List.iter (fun o -> check "request refused or failed" o.ok) outcomes;
  replay mix;
  Db.set_cache_enabled false;
  { outcomes; loop_wall; loop_rel; loop_spans; sstats = Server.stats server; callers }

(* ------------------------------------------------------------------ *)
(* Program phase                                                      *)
(* ------------------------------------------------------------------ *)

type programs = {
  samples : (string, samples) Hashtbl.t;
  rounds : int; (* untraced passes *)
  compiles : sample list; (* per untraced pass *)
  pair_diffs : float list;
      (* per recomposed call: wall time with tracing on minus off *)
  calls_per_pass : int; (* recomposed calls in one traced pass *)
  layer_passes : (string, float) Hashtbl.t list; (* self time per layer *)
  vec_ctr : exec_counters;
  comp_ctr : exec_counters;
  sizes : sizes;
  interp_passes : float list;
}

(* Untraced passes (alternating with traced ones under --trace 1) until
   [deadline], and at least [min_rounds] of each. *)
let program_phase kind ~threads world ~deadline =
  let samples = Hashtbl.create 32 in
  List.iter (fun p -> Hashtbl.replace samples p.pname (new_samples ())) world.progs;
  ignore (Trace.drain ());
  let t0 = now () in
  let refs = reference_pass world.progs samples in
  let interp_passes = ref [ now () -. t0 ] in
  let python = kind <> Tpch in
  (* enough TPC-H passes for 100 program runs, so that p90 has ten
     samples beyond it *)
  let min_rounds =
    match kind with
    | Tpch -> max 3 ((100 / (2 * List.length world.progs)) + 1)
    | Service -> 3
    | Ds -> 10
  in
  let order_rng = rng 7 in
  let compiles = ref [] and layer_passes = ref [] in
  let pair_diffs = ref [] and calls_per_pass = ref 0 and pairs = ref 0 in
  let counters () = { minor_words = 0.; majors = 0; cpu = 0.; exec_wall = 0. } in
  let vec_ctr = counters () and comp_ctr = counters () in
  let sizes = { ir_rules = 0; opt_rules = 0; sql_bytes = 0; nodes = 0 } in
  let round = ref 0 and last = ref [] in
  while !round < (if traced then 2 * min_rounds else min_rounds) || now () < deadline do
    let order = shuffle order_rng world.progs in
    settle ();
    if not (traced && !round mod 2 = 1) then begin
      let compile, out = untraced_pass ~threads ~round:!round ~python ~order refs samples in
      compiles := compile :: !compiles;
      last := out
    end
    else begin
      ignore (Trace.drain ());
      let calls = ref 0 in
      List.iter
        (fun p ->
          List.iter
            (fun backend ->
              let counters = if backend = Db.Compiled then comp_ctr else vec_ctr in
              (* a program that failed untraced is already counted *)
              Option.iter
                (fun untraced ->
                  (* the recomposed pipeline with tracing on and off, back
                     to back, in alternating order *)
                  let run tracing =
                    Trace.enabled := tracing;
                    let w = traced_run ~threads ~backend ~counters ~sizes p untraced in
                    Trace.enabled := true;
                    w
                  in
                  let d =
                    if !pairs mod 2 = 0 then
                      let on = run true in
                      on -. run false
                    else
                      let off = run false in
                      run true -. off
                  in
                  incr pairs;
                  incr calls;
                  pair_diffs := d :: !pair_diffs)
                (List.assoc_opt (p.pname, backend) !last))
            (backends_for_round !round);
          if python then
            ignore
              (Trace.span "interp" (fun () ->
                   Pytond.run_python ~db:p.db ~source:p.source ~fname:"query" ())))
        order;
      let spans = Trace.drain () in
      calls_per_pass := !calls;
      let per = Hashtbl.create 16 in
      List.iter
        (fun (n, s) ->
          Hashtbl.replace per n (s +. Option.value ~default:0. (Hashtbl.find_opt per n)))
        (Trace.self_times spans);
      layer_passes := per :: !layer_passes;
      if python then
        interp_passes :=
          Option.value ~default:0. (Hashtbl.find_opt per "interp") :: !interp_passes
    end;
    incr round
  done;
  (* The TPC-H baseline is too slow to run every round: one more pass after
     the engine passes gives each program a second sample. *)
  if not python then begin
    settle ();
    ignore (Trace.drain ());
    let t0 = now () in
    ignore (reference_pass world.progs samples);
    interp_passes := (now () -. t0) :: !interp_passes
  end;
  { samples;
    rounds = List.length !compiles;
    compiles = !compiles;
    pair_diffs = !pair_diffs;
    calls_per_pass = !calls_per_pass;
    layer_passes = !layer_passes;
    vec_ctr;
    comp_ctr;
    sizes;
    interp_passes = !interp_passes }

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let metrics = ref [] (* name, value, unit; newest first *)

let emit name unit value note =
  let value =
    if Float.is_nan value then begin
      note_failure (name ^ " has no samples");
      0.
    end
    else value
  in
  metrics := (name, value, unit) :: !metrics;
  Printf.printf "  %-34s %14.4f %-6s %s\n%!" name value unit note

let ms x = 1000. *. x

(* Every gated time is in reference units ("ref": the wall time over the
   host-speed kernel's time, see hostref.ml); the wall-clock value each
   one comes from is printed beside it. *)
let report_end_to_end world ~setup_s (p : programs) (r : requests option) =
  let progs = world.progs in
  let per f = List.map (fun q -> f (Hashtbl.find p.samples q.pname)) progs in
  let ok = match r with Some r -> List.filter (fun o -> o.ok) r.outcomes | None -> [] in
  let latencies l = List.map (fun o -> { wall = o.latency; ref_s = o.oref_s }) l in
  let of_kind k = List.filter (fun o -> o.kind = k) ok in
  (* Read operations: service requests, or program runs elsewhere. Reads
     are grouped by kind: the service's Python, SQL and view reads, or
     elsewhere the runs of one program on one backend (the median of all
     runs pooled would fall between the programs' clusters and jump from
     one to the next). *)
  let ops, by_kind, ops_per, ops_note, (tail, tail_q, tail_label) =
    match r with
    | Some r ->
      ( latencies (List.filter (fun o -> not o.write) ok),
        List.map (fun k -> latencies (of_kind k)) read_kinds,
        (float (List.length ok) /. r.loop_rel, float (List.length ok) /. r.loop_wall),
        Printf.sprintf "(closed loop, %d callers, %d requests in %.1fs)" r.callers
          (List.length r.outcomes) r.loop_wall,
        (* p99 is printed below; p95 is the gated tail *)
        (quantile 0.95, 0.95, "p95") )
    | None ->
      let lats = List.concat (per (fun s -> s.vec_s @ s.comp_s)) in
      ( lats,
        List.concat (per (fun s -> [ s.vec_s; s.comp_s ])),
        ( float (List.length lats) /. sum (rels lats),
          float (List.length lats) /. sum (walls lats) ),
        Printf.sprintf "(1 caller, %d program runs)" (List.length lats),
        (tail_mean 0.9, 0.9, "mean of the runs beyond p90") )
  in
  let n_ops = List.length ops in
  (* [f] on the reference-unit values and on the wall times *)
  let both f l = (f (rels l), f (walls l)) in
  let geo f =
    let meds = per (fun s -> both median (f s)) in
    (geomean (List.map fst meds), geomean (List.map snd meds))
  in
  let total f =
    let meds = per (fun s -> both median (f s)) in
    (sum (List.map fst meds), sum (List.map snd meds))
  in
  let ms_ = ("ms", ms) and s_ = ("s", Fun.id) in
  let gated name (v, wall_s) (u, f) note =
    emit name "ref" v (Printf.sprintf "(wall %.4f %s) %s" (f wall_s) u note)
  in
  let n_per = Printf.sprintf "(n=%d per program)" p.rounds in
  Printf.printf "end-to-end (median unless stated; ref = host-speed kernel time, median %.3f ms):\n"
    (ms (median (List.concat (per (fun s -> List.map (fun x -> x.ref_s) s.vec_s)))));
  emit "setup_s" "s" (median setup_s)
    (Printf.sprintf "(median of %d set-ups; max %.3f)" (List.length setup_s)
       (List.fold_left Float.max 0. setup_s));
  gated "compile_ref" (both median p.compiles) ms_
    (Printf.sprintf "(per pass: %d programs x 2 backends; n=%d passes)" (List.length progs)
       p.rounds);
  gated "vec_geomean_ref" (geo (fun s -> s.vec_s)) ms_ n_per;
  gated "comp_geomean_ref" (geo (fun s -> s.comp_s)) ms_ n_per;
  gated "vec_total_ref" (total (fun s -> s.vec_s)) s_
    "(one pass: sum of per-program medians)";
  gated "comp_total_ref" (total (fun s -> s.comp_s)) s_
    "(one pass: sum of per-program medians)";
  gated "python_geomean_ref" (geo (fun s -> s.py_s)) ms_
    (Printf.sprintf "(n=%d per program)"
       (List.length (Hashtbl.find p.samples (List.hd progs).pname).py_s));
  let per_k, per_s = ops_per in
  emit "ops_per_kref" "1/kref" (1000. *. per_k)
    (Printf.sprintf "(%.2f per second) %s" per_s ops_note);
  let kind_meds = List.map (both median) by_kind in
  gated "op_p50_geomean_ref"
    (geomean (List.map fst kind_meds), geomean (List.map snd kind_meds))
    ms_
    (Printf.sprintf "(geometric mean over %d read kinds of the median; n=%s)"
       (List.length by_kind)
       (let ns = List.map List.length by_kind in
        match List.sort_uniq compare ns with
        | [ n ] -> Printf.sprintf "%d each" n
        | _ -> String.concat "/" (List.map string_of_int ns)));
  gated "op_tail_ref" (both tail ops) ms_
    (Printf.sprintf "(%s of n=%d%s)" tail_label n_ops
       (if supported tail_q n_ops then "" else "; fewer than ten samples beyond it"));
  emit "peak_rss_mb" "MB" (peak_rss_mb ()) "(VmHWM)";
  (* printed, not gated: see README.md *)
  let line name unit value note = Printf.printf "  %-34s %14.4f %-6s %s\n" name value unit note in
  if r <> None then begin
    line "op_p99" "ms" (ms (quantile 0.99 (walls ops)))
      (Printf.sprintf "(n=%d%s)" n_ops
         (if supported 0.99 n_ops then "" else "; fewer than ten samples beyond it"));
    List.iter
      (fun k ->
        let lats = walls (latencies (of_kind k)) in
        line (k ^ "_p50") "ms" (ms (median lats))
          (Printf.sprintf "(n=%d requests; p90 %.3f)" (List.length lats)
             (ms (quantile 0.9 lats))))
      kinds
  end;
  line "fail_frac" "ratio" (float !failed /. float (max 1 !attempted)) "(failed / attempted)";
  Printf.printf "per program (median wall ms):\n";
  List.iter
    (fun q ->
      let s = Hashtbl.find p.samples q.pname in
      let m l = ms (median (walls l)) in
      Printf.printf "  %-22s vec_ms=%9.3f comp_ms=%9.3f python_ms=%9.3f\n" q.pname
        (m s.vec_s) (m s.comp_s) (m s.py_s))
    progs

let report_layers ~threads ~mode_s ~gen_s ~load_s ~before ~after (p : programs)
    (r : requests option) =
  let passes = p.layer_passes in
  let n_tr = float (max 1 (List.length passes)) in
  let layer name =
    ms (median (List.map (fun h -> Option.value ~default:0. (Hashtbl.find_opt h name)) passes))
  in
  (* Request-path layers run on the service only; elsewhere they read 0. *)
  let outcomes, loop_spans, rejected, tenants =
    match r with
    | Some r ->
      (r.outcomes, r.loop_spans, r.sstats.Server.rejected, r.sstats.Server.tenants)
    | None -> ([], [], 0, [])
  in
  let median0 = function [] -> 0. | l -> median l in
  let per_op name =
    ms (median0 (List.filter_map (fun (n, s) -> if n = name then Some s else None) loop_spans))
  in
  let d f = float (f after - f before) in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let bind_hits = d (fun s -> s.Db.bind_hits)
  and bind_misses = d (fun s -> s.Db.bind_misses)
  and trips = d (fun s -> s.Db.guard_trips)
  and hits = d (fun s -> s.Db.hits)
  and misses = d (fun s -> s.Db.misses) in
  let tsum f = List.fold_left (fun a (_, ts) -> a + f ts) 0 tenants in
  let ok = List.filter (fun o -> o.ok) outcomes in
  let c = p.vec_ctr and k = p.comp_ctr and z = p.sizes in
  Printf.printf
    "per layer (self time per traced pass over every program on both backends, \
     median of %d):\n"
    (List.length passes);
  emit "frontend.ms" "ms" (layer "frontend") "";
  emit "translate.ms" "ms" (layer "translate") "";
  emit "translate.ir_rules" "count" (float z.ir_rules /. n_tr) "(summed over programs)";
  emit "optimizer.global_dce.ms" "ms" (layer "optimizer.global_dce") "(3 calls per program)";
  emit "optimizer.group_agg_elim.ms" "ms" (layer "optimizer.group_agg_elim") "";
  emit "optimizer.self_join_elim.ms" "ms" (layer "optimizer.self_join_elim") "";
  emit "optimizer.inline_rules.ms" "ms" (layer "optimizer.inline_rules") "";
  emit "optimizer.ir_rules" "count" (float z.opt_rules /. n_tr) "(after O4)";
  emit "sqlgen.ms" "ms" (layer "sqlgen") "";
  emit "sqlgen.sql_bytes" "bytes" (float z.sql_bytes /. n_tr) "";
  emit "sql_parse.ms" "ms" (layer "sql_parse") "";
  emit "planner.ms" "ms" (layer "planner") "";
  emit "planner.plan_nodes" "count" (float z.nodes /. n_tr) "";
  emit "exec_vectorized.ms" "ms" (layer "exec_vectorized") "";
  emit "exec_compiled.ms" "ms" (layer "exec_compiled") "";
  emit "exec_vectorized.minor_mwords" "Mwords" (c.minor_words /. n_tr /. 1e6)
    "(this domain only)";
  emit "exec_compiled.minor_mwords" "Mwords" (k.minor_words /. n_tr /. 1e6)
    "(this domain only)";
  emit "gc.major_collections" "count" (float (c.majors + k.majors) /. n_tr)
    "(during exec, per pass)";
  emit "exec.cpu_per_wall" "ratio"
    ((c.cpu +. k.cpu) /. Float.max 1e-9 (c.exec_wall +. k.exec_wall))
    (Printf.sprintf "(mode=%s cores=%d threads=%d)" mode_s
       (Parallel.available_cores ()) threads);
  emit "interp.ms" "ms" (ms (median p.interp_passes)) "(per pass over the programs)";
  emit "plancache.bind_hits" "count" bind_hits "(whole run, every database)";
  emit "plancache.bind_misses" "count" bind_misses "";
  emit "plancache.guard_trips" "count" trips "";
  emit "plancache.bind_ratio" "ratio" (ratio bind_hits (bind_misses +. trips)) "";
  emit "result_cache.hits" "count" hits "";
  emit "result_cache.misses" "count" misses "";
  emit "result_cache.hit_ratio" "ratio" (ratio hits misses) "";
  emit "matview.delta_refreshes" "count" (d (fun s -> s.Db.delta_refreshes)) "";
  emit "matview.recomputes" "count" (d (fun s -> s.Db.view_recomputes)) "";
  emit "matview.view_hits" "count" (d (fun s -> s.Db.view_hits)) "";
  emit "matview.read_ms" "ms" (per_op "matview.read") "(per read)";
  emit "append.ms" "ms" (per_op "append") "(per append)";
  emit "server.queued_ms" "ms" (ms (median0 (List.map (fun o -> o.queued) ok)))
    "(per request)";
  emit "server.service_ms" "ms"
    (ms (median0 (List.map (fun o -> o.latency -. o.queued) ok)))
    "(per request)";
  emit "server.rejected" "count" (float rejected) "";
  emit "server.retries" "count" (float (tsum (fun t -> t.Tenant.s_retries))) "";
  emit "server.fallbacks" "count" (float (tsum (fun t -> t.Tenant.s_fallbacks))) "";
  emit "dbgen.generate_s" "s" (median gen_s) "";
  emit "dbgen.load_s" "s" (median load_s) "";
  emit "trace.overhead_ms" "ms"
    (ms (median p.pair_diffs *. float p.calls_per_pass))
    (Printf.sprintf
       "(per traced pass: median over %d calls of tracing on minus off, times %d calls)"
       (List.length p.pair_diffs) p.calls_per_pass);
  let dir = ".bench_trace" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/%s-seed%d.jsonl" dir !workload !seed in
  Trace.write path;
  Printf.printf "spans written to %s\n" path

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let kind, threads, sf, only = spec () in
  if !seconds <= 0. then die "--seconds must be positive";
  Trace.enabled := traced;
  Db.set_cache_enabled false;
  let mode = Parallel.current_mode () in
  let mode_s =
    match mode with
    | Parallel.Domains -> "domains"
    | Parallel.Simulated -> "simulated"
    | Parallel.Sequential_only -> "sequential"
  in
  Printf.printf
    "host: workload=%s seed=%d seconds=%g trace=%d parallel_mode=%s cores=%d \
     ocaml=%s sf=%s threads=%d\n%!"
    !workload !seed !seconds !trace mode_s
    (Parallel.available_cores ())
    Sys.ocaml_version
    (match sf with Some s -> Printf.sprintf "%g" s | None -> "-")
    threads;
  if mode = Parallel.Simulated then
    Printf.printf
      "WARNING: Parallel mode is Simulated; wall times are not comparable \
       with Domains runs\n%!";
  let world, gen_s, load_s = run_setups ?only kind ~threads in
  let t_start = now () in
  let before = cache_totals world in
  (* The service spends 30% of the measured time on program passes and the
     rest on its request loop. *)
  let prog_deadline =
    t_start +. (!seconds *. if kind = Service then 0.3 else 1.)
  in
  let p = program_phase kind ~threads world ~deadline:prog_deadline in
  Printf.printf "program passes: %d untraced%s over %d programs x 2 backends\n%!"
    p.rounds
    (if traced then Printf.sprintf ", %d traced" (List.length p.layer_passes) else "")
    (List.length world.progs);
  let r =
    if kind = Service then begin
      settle ();
      (* at least half the measured time, should the passes overrun *)
      let deadline = Float.max (t_start +. !seconds) (now () +. (0.5 *. !seconds)) in
      Some (request_phase world ~deadline)
    end
    else None
  in
  let after = cache_totals world in
  Printf.printf "workload %s: %d checked operations, %d failed\n" !workload
    !attempted !failed;
  List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) (List.rev !problems);
  if traced then report_layers ~threads ~mode_s ~gen_s ~load_s ~before ~after p r
  else
    report_end_to_end world
      ~setup_s:(List.map2 ( +. ) gen_s load_s)
      p r;
  let fields =
    List.rev_map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (String.concat ", " fields);
  exit (if !failed = 0 then 0 else 1)
