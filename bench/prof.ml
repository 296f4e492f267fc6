(* Interleaved A/B timing of raw vs dict for one query: runs of the two
   variants alternate so machine drift hits both equally. Reports minor
   allocation per query next to time — boxing regressions (e.g. a column
   falling off a typed loop back to boxed per-row evaluation) show up here
   as an allocation jump long before they dominate wall time.
   Scratch tool — not part of the bench suite. *)
let () =
  let q = if Array.length Sys.argv > 1 then Sys.argv.(1) else "q4" in
  let backend =
    if Array.length Sys.argv > 2 && Sys.argv.(2) = "hyper" then
      Sqldb.Db.Compiled
    else Sqldb.Db.Vectorized
  in
  let reps = if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 9 in
  let sf =
    match Sys.getenv_opt "PYTOND_SF" with Some s -> float_of_string s | None -> 0.05
  in
  Sqldb.Db.set_cache_enabled false;
  (* stamp the configuration the numbers were measured under, mirroring the
     config fields on bench --json rows *)
  let onoff b = if b then "on" else "off" in
  Printf.printf
    "config: sf=%g backend=%s fused=%s radix=%s\n%!" sf
    (if backend = Sqldb.Db.Vectorized then "duck" else "hyper")
    (onoff (Sqldb.Kernel.fuse_enabled ()))
    (onoff (Sqldb.Radix.enabled ()));
  let mk dict =
    Sqldb.Db.set_dict_encoding dict;
    let db = Tpch.Dbgen.make_db sf in
    let source = Tpch.Queries.find q in
    let dialect = if backend = Sqldb.Db.Vectorized then "duckdb" else "hyper" in
    let sql = Pytond.compile ~dialect ~db ~source ~fname:"query" () in
    (db, sql)
  in
  let db_raw, sql_raw = mk false in
  let db_dict, sql_dict = mk true in
  (* one sample = (wall seconds, minor words allocated) *)
  let time db sql =
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    ignore (Sqldb.Db.execute ~backend db sql);
    (Unix.gettimeofday () -. t0, Gc.minor_words () -. w0)
  in
  ignore (time db_raw sql_raw);
  ignore (time db_dict sql_dict);
  let traw = Array.make reps 0. and tdict = Array.make reps 0. in
  let wraw = Array.make reps 0. and wdict = Array.make reps 0. in
  for i = 0 to reps - 1 do
    let t, w = time db_raw sql_raw in
    traw.(i) <- t;
    wraw.(i) <- w;
    let t, w = time db_dict sql_dict in
    tdict.(i) <- t;
    wdict.(i) <- w
  done;
  let median a =
    let a = Array.copy a in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  Printf.printf "%s %s: raw median %.4fs  dict median %.4fs  speedup %.2fx\n" q
    (if backend = Sqldb.Db.Vectorized then "duck" else "hyper")
    (median traw) (median tdict)
    (median traw /. median tdict);
  Printf.printf
    "%s alloc: raw median %.0f minor words/query  dict median %.0f minor \
     words/query (%.2fx)\n"
    q (median wraw) (median wdict)
    (median wraw /. Float.max 1. (median wdict))
