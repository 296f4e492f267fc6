(** Unit & property tests for the storage primitives: values, dates,
    bitsets, columns, relations. *)

open Sqldb
open Helpers

let date_tests =
  [ tc "iso roundtrip" (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check string)
              s s
              (Value.iso_of_date (Value.date_of_iso s)))
          [ "1970-01-01"; "1992-01-01"; "1998-08-02"; "2000-02-29";
            "1900-03-01"; "2024-12-31" ]);
    tc "epoch zero" (fun () ->
        Alcotest.(check int) "1970-01-01 is day 0" 0
          (Value.date_of_iso "1970-01-01"));
    tc "ordering" (fun () ->
        Alcotest.(check bool)
          "dates ordered" true
          (Value.date_of_iso "1995-03-15" < Value.date_of_iso "1995-03-16"));
    tc "year/month extraction" (fun () ->
        let d = Value.date_of_iso "1996-07-04" in
        Alcotest.(check int) "year" 1996 (Value.year_of_days d);
        Alcotest.(check int) "month" 7 (Value.month_of_days d));
    tc "leap year" (fun () ->
        let d = Value.date_of_iso "2000-02-29" in
        let y, m, day = Value.ymd_of_days d in
        Alcotest.(check (triple int int int)) "ymd" (2000, 2, 29) (y, m, day))
  ]

let date_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"days->ymd->days roundtrip" ~count:500
         QCheck2.Gen.(int_range (-100_000) 100_000)
         (fun d ->
           let y, m, day = Value.ymd_of_days d in
           Value.days_of_ymd y m day = d)) ]

let bitset_tests =
  [ tc "set/get/clear" (fun () ->
        let b = Bitset.create 100 in
        Bitset.set b 0;
        Bitset.set b 63;
        Bitset.set b 99;
        Alcotest.(check bool) "0 set" true (Bitset.get b 0);
        Alcotest.(check bool) "63 set" true (Bitset.get b 63);
        Alcotest.(check bool) "1 unset" false (Bitset.get b 1);
        Bitset.clear b 63;
        Alcotest.(check bool) "63 cleared" false (Bitset.get b 63);
        Alcotest.(check int) "popcount" 2 (Bitset.popcount b));
    tc "union" (fun () ->
        let a = Bitset.create 16 and b = Bitset.create 16 in
        Bitset.set a 1;
        Bitset.set b 2;
        let u = Bitset.union a b in
        Alcotest.(check (list int)) "union bits" [ 1; 2 ]
          (Array.to_list (Bitset.to_indices u))) ]

let bitset_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"of_indices/to_indices roundtrip" ~count:200
         QCheck2.Gen.(list_size (int_bound 50) (int_bound 199))
         (fun idx ->
           let idx = List.sort_uniq compare idx in
           let b = Bitset.of_indices ~len:200 (Array.of_list idx) in
           Array.to_list (Bitset.to_indices b) = idx)) ]

let column_tests =
  [ tc "take with -1 yields nulls" (fun () ->
        let c = ints [| 10; 20; 30 |] in
        let t = Column.take c [| 2; -1; 0 |] in
        Alcotest.(check bool) "null at 1" true (Column.is_null t 1);
        Alcotest.(check int) "t[0]" 30 (Column.int_at t 0);
        Alcotest.(check int) "t[2]" 10 (Column.int_at t 2));
    tc "of_values infers nulls" (fun () ->
        let c =
          Column.of_values Value.TFloat
            [| Value.VFloat 1.; Value.VNull; Value.VFloat 3. |]
        in
        Alcotest.(check bool) "has nulls" true (Column.has_nulls c);
        Alcotest.(check bool) "mid null" true (Column.is_null c 1));
    tc "concat fast path" (fun () ->
        let c = Column.concat [ ints [| 1; 2 |]; ints [| 3 |] ] in
        Alcotest.(check int) "len" 3 (Column.length c);
        Alcotest.(check int) "last" 3 (Column.int_at c 2));
    tc "concat with nulls" (fun () ->
        let a = Column.take (ints [| 1 |]) [| -1 |] in
        let c = Column.concat [ a; ints [| 5 |] ] in
        Alcotest.(check bool) "null kept" true (Column.is_null c 0);
        Alcotest.(check int) "value kept" 5 (Column.int_at c 1)) ]

let column_props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"take permutes values" ~count:200
         QCheck2.Gen.(list_size (int_range 1 40) (int_range (-1000) 1000))
         (fun xs ->
           let arr = Array.of_list xs in
           let c = ints arr in
           let n = Array.length arr in
           let idx = Array.init n (fun i -> n - 1 - i) in
           let t = Column.take c idx in
           Array.for_all
             (fun i -> Column.int_at t i = arr.(n - 1 - i))
             (Array.init n Fun.id))) ]

(* Every column layout must hand back exactly the values it was built
   from, through ingest (of_values / encode), gathers with injected nulls
   (take), fast- and slow-path concat and incremental append. Expected
   values are computed on the input [Value.t] array itself. *)
let bigarray_tests =
  let values_of c = Array.init (Column.length c) (Column.get c) in
  let n = 300 in
  let cases =
    [ ( "int",
        Value.TInt,
        Array.init n (fun i ->
            if i mod 5 = 0 then Value.VNull else Value.VInt ((i * 37 mod 211) - 100))
      );
      ( "float",
        Value.TFloat,
        Array.init n (fun i ->
            if i mod 7 = 0 then Value.VNull
            else Value.VFloat (float_of_int (i - (n / 2)) /. 3.)) );
      ( "date",
        Value.TDate,
        Array.init n (fun i ->
            if i mod 9 = 0 then Value.VNull else Value.VDate (i * 3)) );
      ( "string",
        Value.TString,
        Array.init n (fun i ->
            if i mod 6 = 0 then Value.VNull
            else Value.VString (Printf.sprintf "s%d" (i mod 13))) );
      ( "bool",
        Value.TBool,
        Array.init n (fun i ->
            if i mod 8 = 0 then Value.VNull else Value.VBool (i mod 3 = 0)) ) ]
  in
  (* raw layouts plus the dictionary-encoded string layout *)
  let columns_of ty vals =
    let c = Column.of_values ty vals in
    if ty = Value.TString then
      let d = Column.encode c in
      Alcotest.(check bool) "string column encodes" true (Column.is_dict d);
      [ c; d ]
    else [ c ]
  in
  let check name expected c =
    Alcotest.(check bool) name true (values_of c = expected)
  in
  [ tc "round trip vs values" (fun () ->
        List.iter
          (fun (name, ty, vals) ->
            List.iter
              (fun c ->
                check (name ^ " of_values/get") vals c;
                (* a reversing permutation with injected -1 (null) gathers *)
                let idx =
                  Array.init n (fun i -> if i mod 11 = 3 then -1 else n - 1 - i)
                in
                check (name ^ " take")
                  (Array.map (fun i -> if i < 0 then Value.VNull else vals.(i)) idx)
                  (Column.take c idx))
              (columns_of ty vals);
            check (name ^ " const") (Array.make 4 vals.(1))
              (Column.const ty vals.(1) 4);
            check (name ^ " null const") (Array.make 4 Value.VNull)
              (Column.const ty Value.VNull 4))
          cases);
    tc "concat/append_chunk vs values" (fun () ->
        List.iter
          (fun (name, ty, vals) ->
            List.iter
              (fun c ->
                let half = Array.sub vals 0 (n / 2) in
                let live =
                  Array.of_list
                    (List.filter
                       (fun i -> not (Value.is_null vals.(i)))
                       (List.init n Fun.id))
                in
                (* gathers keep the source layout (and dictionary) *)
                let null_free = Column.take c live in
                let with_nulls = Column.take c (Array.init (n / 2) Fun.id) in
                (* the same-layout fast path (no nulls) and the boxed slow
                   path (nulls on one side) *)
                let live_vals = Array.map (fun i -> vals.(i)) live in
                check (name ^ " concat fast")
                  (Array.append live_vals live_vals)
                  (Column.concat [ null_free; null_free ]);
                check (name ^ " concat slow")
                  (Array.append half vals)
                  (Column.concat [ with_nulls; c ]);
                (* append onto the resident column; a dictionary grows
                   code-stably with the batch's unseen values *)
                let fresh =
                  Array.map
                    (function
                      | Value.VString s -> Value.VString (s ^ "+")
                      | v -> v)
                    half
                in
                check (name ^ " append_chunk")
                  (Array.append vals fresh)
                  (Column.append_chunk c (Column.of_values ty fresh)))
              (columns_of ty vals))
          cases) ]

let relation_tests =
  [ tc "schema & canonical" (fun () ->
        let r =
          rel [ "a"; "b" ] [ ints [| 2; 1 |]; strings [| "y"; "x" |] ]
        in
        Alcotest.(check int) "rows" 2 (Relation.n_rows r);
        Alcotest.(check (list string))
          "canonical sorted" [ "1|x"; "2|y" ] (Relation.canonical r));
    tc "rename" (fun () ->
        let r = rel [ "a" ] [ ints [| 1 |] ] in
        let r = Relation.rename r [| "z" |] in
        Alcotest.(check bool) "renamed" true (Relation.col_index r "z" = Some 0));
    tc "concat" (fun () ->
        let a = rel [ "x" ] [ ints [| 1 |] ] in
        let b = rel [ "x" ] [ ints [| 2 |] ] in
        Alcotest.(check int) "rows" 2 (Relation.n_rows (Relation.concat [ a; b ])))
  ]

let like_props =
  let naive_like = Sqldb.Eval.like_match in
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"compile_like agrees with like_match" ~count:500
         QCheck2.Gen.(
           pair
             (string_size ~gen:(oneofl [ 'a'; 'b'; '%'; '_' ]) (int_bound 8))
             (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (int_bound 10)))
         (fun (pat, s) -> Sqldb.Eval.compile_like pat s = naive_like pat s)) ]

let suites =
  [ ("dates", date_tests @ date_props);
    ("bitset", bitset_tests @ bitset_props);
    ("column", column_tests @ column_props);
    ("bigarray", bigarray_tests);
    ("relation", relation_tests);
    ("like", like_props) ]
