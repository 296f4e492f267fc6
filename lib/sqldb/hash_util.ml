(** Hash keys over one or more columns, shared by joins, grouping and
    distinct.

    Dictionary-encoded string columns get two fast paths:
    - [key_fn ~local:true] keys on the integer code directly. Codes are only
      meaningful relative to one dictionary, so this is restricted to
      single-relation uses (grouping, distinct) where every key comes from
      the same column.
    - [probe_fn] keys on the decoded string (safe across dictionaries) but
      memoizes the hash lookup per code, so a join probe touches the hash
      table once per *distinct* value and then runs on int indexing. *)

open Value

type key = KInt of int | KStr of string

(* Serialize a multi-column key into bytes: ints as decimal text, strings
   raw; unit separator avoids ambiguity. *)
let pack_values (vs : Value.t list) : string =
  let buf = Buffer.create 24 in
  List.iter
    (fun v ->
      (match v with
      | VInt i | VDate i -> Buffer.add_string buf (string_of_int i)
      | VFloat f -> Buffer.add_string buf (string_of_float f)
      | VString s -> Buffer.add_string buf s
      | VBool b -> Buffer.add_char buf (if b then 't' else 'f')
      | VNull -> Buffer.add_string buf "\x00N");
      Buffer.add_char buf '\x1f')
    vs;
  Buffer.contents buf

(* Multi-column local keys: pack one small slot per column into a single
   int, mixed-radix. Slot 0 is reserved for null, so nulls group together
   (SQL GROUP BY) and are detectable for the null_as_key:false case.
   Returns per-column [(slot_fn, radix)] or None when a column does not fit.
   [cross_chunk] demands slots and radices that are identical across
   take-gathered copies of the columns (the compiled executor builds one
   key_fn per morsel and merges the partial tables by key): dictionary
   radices come from the shared dict object so they qualify; int bounds are
   data-dependent per copy so they do not. *)
let mixed_radix ~cross_chunk (cs : Column.t list) :
    ((int -> int) * int) list option =
  let slot (c : Column.t) =
    let nullable f =
      match c.Column.nulls with
      | None -> f
      | Some m -> fun row -> if Bitset.get m row then 0 else f row
    in
    match c.Column.data with
    | Column.D (codes, d) ->
      Some
        ( nullable (fun row -> Bigarray.Array1.unsafe_get codes row + 1),
          Column.dict_size d + 1 )
    | Column.B a ->
      Some (nullable (fun row -> if a.(row) then 2 else 1), 3)
    | Column.I v when not cross_chunk ->
      let get row = Bigarray.Array1.unsafe_get v row in
      let n = Column.length c in
      if n = 0 then Some ((fun _ -> 0), 2)
      else begin
        let lo = ref (get 0) and hi = ref (get 0) in
        for i = 1 to n - 1 do
          let x = get i in
          if x < !lo then lo := x;
          if x > !hi then hi := x
        done;
        let lo = !lo in
        Some (nullable (fun row -> get row - lo + 1), !hi - lo + 2)
      end
    | _ -> None
  in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | c :: rest -> (
      match slot c with None -> None | Some s -> go (s :: acc) rest)
  in
  match go [] cs with
  | Some parts ->
    (* overflow check on the combined radix product *)
    let prod =
      List.fold_left (fun p (_, r) -> p *. float_of_int r) 1. parts
    in
    if prod < 4.0e18 then Some parts else None
  | None -> None

(* Dense grouping domain: when every key column packs into a small slot
   range (dictionary codes, bools, bounded ints), grouping can use a
   direct-indexed accumulator table instead of a hash table. Nulls take slot
   0 per column, matching GROUP BY null semantics. Returns the packed-key
   function and the domain cardinality. *)
let dense_domain ?(cross_chunk = false) ~(limit : int) (cols : Column.t array)
    (idxs : int list) : ((int -> int) * int) option =
  match mixed_radix ~cross_chunk (List.map (fun i -> cols.(i)) idxs) with
  | None -> None
  | Some parts ->
    let card = List.fold_left (fun p (_, r) -> p * r) 1 parts in
    if card > limit then None
    else
      let slots = Array.of_list (List.map fst parts) in
      let radices = Array.of_list (List.map snd parts) in
      let k = Array.length slots in
      let pack row =
        let acc = ref 0 in
        for i = 0 to k - 1 do
          acc := (!acc * radices.(i)) + slots.(i) row
        done;
        !acc
      in
      Some (pack, card)

(* Key extractor over [cols] at positions [idxs].
   [null_as_key]: grouping treats null as a regular key; joins return None so
   the row never matches.
   [local]: keys never leave this column set (grouping/distinct), so
   dictionary codes can stand in for their strings.
   [cross_chunk]: key values must stay comparable across key_fn instances
   built on take-gathered copies of these columns (see [mixed_radix]). *)
let key_fn ?(local = false) ?(cross_chunk = false) ~(null_as_key : bool)
    (cols : Column.t array) (idxs : int list) : int -> key option =
  match idxs with
  | [ i ] -> (
    let c = cols.(i) in
    (* lift a non-null key extractor over the column's null mask *)
    let with_nulls (f : int -> key) : int -> key option =
      match c.Column.nulls with
      | None -> fun row -> Some (f row)
      | Some m ->
        fun row ->
          if Bitset.get m row then
            if null_as_key then Some (KStr "\x00N") else None
          else Some (f row)
    in
    match c.Column.data with
    | Column.I v -> with_nulls (fun row -> KInt (Bigarray.Array1.unsafe_get v row))
    | Column.S a -> with_nulls (fun row -> KStr a.(row))
    | Column.D (codes, _) when local ->
      with_nulls (fun row -> KInt (Bigarray.Array1.unsafe_get codes row))
    | Column.D (codes, d) ->
      let values = d.Column.values in
      with_nulls (fun row -> KStr values.(Bigarray.Array1.unsafe_get codes row))
    | _ ->
      fun row ->
        let v = Column.get c row in
        if Value.is_null v then
          if null_as_key then Some (KStr "\x00N") else None
        else Some (KStr (pack_values [ v ])))
  | idxs -> (
    let cs = List.map (fun i -> cols.(i)) idxs in
    match if local then mixed_radix ~cross_chunk cs else None with
    | Some parts ->
      let slots = Array.of_list (List.map fst parts) in
      let radices = Array.of_list (List.map snd parts) in
      let k = Array.length slots in
      fun row ->
        let rec go i acc =
          if i = k then Some (KInt acc)
          else
            let s = slots.(i) row in
            if s = 0 && not null_as_key then None
            else go (i + 1) ((acc * radices.(i)) + s)
        in
        go 0 0
    | None ->
      fun row ->
        let vs = List.map (fun c -> Column.get c row) cs in
        if (not null_as_key) && List.exists Value.is_null vs then None
        else Some (KStr (pack_values vs)))

(* ------------------------------------------------------------------ *)
(* Bloom filters                                                      *)
(* ------------------------------------------------------------------ *)

(* Compact bloom filter over the build-side keys: two bits per key in a
   power-of-two bit array (~8 bits per key, <5% false positives), consulted
   before the hash table on join probes. Probe misses — the common case on
   selective joins — skip the bucket walk entirely, and the filter is small
   enough to stay cache-resident when the table is not. *)
type bloom = { bits : Bytes.t; mask : int }

(* splitmix64 finalizer with multipliers truncated to OCaml's 63-bit ints *)
let bloom_mix h =
  let h = h lxor (h lsr 30) in
  let h = h * 0x3f58476d1ce4e5b9 in
  let h = h lxor (h lsr 27) in
  let h = h * 0x14d049bb133111eb in
  h lxor (h lsr 31)

let bloom_create n_keys =
  let want = max 1024 (8 * n_keys) in
  let rec pow2 b = if b >= want then b else pow2 (b * 2) in
  let nbits = pow2 1024 in
  { bits = Bytes.make (nbits lsr 3) '\000'; mask = nbits - 1 }

let bloom_set b i =
  let byte = i lsr 3 in
  Bytes.unsafe_set b.bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b.bits byte) lor (1 lsl (i land 7))))

let bloom_get b i =
  Char.code (Bytes.unsafe_get b.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let bloom_add b h =
  let h = bloom_mix h in
  bloom_set b (h land b.mask);
  bloom_set b ((h lsr 21) land b.mask)

let bloom_may b h =
  let h = bloom_mix h in
  bloom_get b (h land b.mask) && bloom_get b ((h lsr 21) land b.mask)

(* Int keys hash as themselves so the unboxed [TInt] build path and boxed
   [KInt] probes agree on bloom bits. *)
let bloom_hash_key (k : key) =
  match k with KInt i -> i | KStr _ -> Hashtbl.hash k

(* A build-side table. A single int key column (the common join shape:
   foreign keys) gets an unboxed int-keyed table — no [key] boxing on insert
   or probe, and OCaml's immediate-int hashing. Everything else uses boxed
   [key]s. *)
type impl =
  | TInt of (int, int list) Hashtbl.t
  | TBoxed of (key, int list) Hashtbl.t

type table = { impl : impl; bloom : bloom option }

let table_size (t : table) =
  match t.impl with TInt h -> Hashtbl.length h | TBoxed h -> Hashtbl.length h

let lookup_key (t : table) (k : key) : int list =
  match (t.impl, k) with
  | TBoxed tbl, k -> (
    match Hashtbl.find_opt tbl k with Some rows -> rows | None -> [])
  | TInt tbl, KInt i -> (
    match Hashtbl.find_opt tbl i with Some rows -> rows | None -> [])
  | TInt _, KStr _ -> []

(* Build a key -> row-index-list table. Without [sel], over all [n] rows;
   with [sel], over the listed base rows only (the table still stores base
   row indices, so probe results compose with selection vectors). *)
let build_table ?sel ~null_as_key (cols : Column.t array) (idxs : int list)
    ~(n : int) : table =
  let n_log = match sel with Some s -> Array.length s | None -> n in
  let iter_rows f =
    match sel with
    | None ->
      for row = 0 to n_log - 1 do
        f row
      done
    | Some s ->
      for pos = 0 to n_log - 1 do
        f s.(pos)
      done
  in
  let int_col =
    match idxs with
    | [ i ] when not (null_as_key && Column.has_nulls cols.(i)) -> (
      match Column.int_reader cols.(i) with
      | Some get -> Some (get, cols.(i).Column.nulls)
      | None -> None)
    | _ -> None
  in
  let bl = bloom_create n_log in
  match int_col with
  | Some (get, nulls) ->
    (* unboxed build: null rows can't be int keys, so they are skipped
       (valid because null_as_key is false whenever nulls are present) *)
    let tbl = Hashtbl.create (max 16 n_log) in
    let insert row =
      let k = get row in
      bloom_add bl k;
      match Hashtbl.find_opt tbl k with
      | Some rows -> Hashtbl.replace tbl k (row :: rows)
      | None -> Hashtbl.add tbl k [ row ]
    in
    (match nulls with
    | None -> iter_rows insert
    | Some m -> iter_rows (fun row -> if not (Bitset.get m row) then insert row));
    { impl = TInt tbl; bloom = Some bl }
  | None ->
    let kf = key_fn ~null_as_key cols idxs in
    let tbl = Hashtbl.create (max 16 n_log) in
    iter_rows (fun row ->
        match kf row with
        | None -> ()
        | Some k -> (
          bloom_add bl (bloom_hash_key k);
          match Hashtbl.find_opt tbl k with
          | Some rows -> Hashtbl.replace tbl k (row :: rows)
          | None -> Hashtbl.add tbl k [ row ]));
    { impl = TBoxed tbl; bloom = Some bl }

(* Join-probe closure: probe row -> matching build rows. Nulls never match
   (join semantics). A single dictionary-encoded probe key memoizes the
   lookup per code; a single int probe key against a [TInt] table runs
   unboxed. The memo is mutable, so callers running probes on multiple
   domains should create one probe_fn per chunk (the [table] itself is
   shared). *)
let probe_fn (t : table) (cols : Column.t array) (idxs : int list) :
    int -> int list =
  let boxed_lookup k =
    match t.bloom with
    | Some b when not (bloom_may b (bloom_hash_key k)) -> []
    | _ -> lookup_key t k
  in
  match idxs with
  | [ i ] -> (
    let c = cols.(i) in
    match (Column.int_reader c, Column.codes_reader c, t.impl) with
    | Some get, _, TInt itbl -> (
      let lookup =
        match t.bloom with
        | Some b ->
          fun row ->
            let k = get row in
            if not (bloom_may b k) then []
            else (
              match Hashtbl.find_opt itbl k with
              | Some rows -> rows
              | None -> [])
        | None -> (
          fun row ->
            match Hashtbl.find_opt itbl (get row) with
            | Some rows -> rows
            | None -> [])
      in
      match c.Column.nulls with
      | None -> lookup
      | Some m -> fun row -> if Bitset.get m row then [] else lookup row)
    | _, Some (codes, d), _ -> (
      let values = d.Column.values in
      let memo : int list option array = Array.make (Array.length values) None in
      let lookup code =
        match memo.(code) with
        | Some rows -> rows
        | None ->
          (* the bloom check runs once per distinct code, then memoizes *)
          let rows = boxed_lookup (KStr values.(code)) in
          memo.(code) <- Some rows;
          rows
      in
      match c.Column.nulls with
      | None -> fun row -> lookup (codes row)
      | Some m -> fun row -> if Bitset.get m row then [] else lookup (codes row))
    | _ ->
      let kf = key_fn ~null_as_key:false cols idxs in
      fun row -> ( match kf row with None -> [] | Some k -> boxed_lookup k))
  | idxs ->
    let kf = key_fn ~null_as_key:false cols idxs in
    fun row -> ( match kf row with None -> [] | Some k -> boxed_lookup k)

(* ------------------------------------------------------------------ *)
(* Radix partition hashes                                             *)
(* ------------------------------------------------------------------ *)

(* Per-row partition hash over the key columns at [idxs], for radix
   partitioning ({!Radix}). Both join sides must agree on the hash of equal
   key values even when their physical layouts differ (raw [S] strings on
   one side, codes over a different dictionary on the other), so ints hash
   as themselves through [bloom_mix] and strings through [Hashtbl.hash] of
   the decoded value — dictionary columns precompute one hash per distinct
   code, so the per-row cost is one array load. Returns [None] for layouts
   without a stable cross-side hash (floats, bools); a negative hash marks a
   null key, which never joins and is never partitioned. *)
let row_hash (cols : Column.t array) (idxs : int list) : (int -> int) option =
  let component (c : Column.t) : (int -> int) option =
    let nullable f =
      match c.Column.nulls with
      | None -> f
      | Some m -> fun row -> if Bitset.get m row then -1 else f row
    in
    match c.Column.data with
    | Column.I v ->
      Some
        (nullable (fun row ->
             bloom_mix (Bigarray.Array1.unsafe_get v row) land max_int))
    | Column.S a ->
      Some (nullable (fun row -> bloom_mix (Hashtbl.hash a.(row)) land max_int))
    | Column.D (codes, d) ->
      let hcode =
        Array.map
          (fun s -> bloom_mix (Hashtbl.hash s) land max_int)
          d.Column.values
      in
      Some (nullable (fun row -> hcode.(Bigarray.Array1.unsafe_get codes row)))
    | Column.B _ | Column.F _ -> None
  in
  match idxs with
  | [] -> None
  | [ i ] -> component cols.(i)
  | idxs -> (
    let rec go acc = function
      | [] -> Some (Array.of_list (List.rev acc))
      | i :: rest -> (
        match component cols.(i) with
        | None -> None
        | Some f -> go (f :: acc) rest)
    in
    match go [] idxs with
    | None -> None
    | Some fs ->
      let k = Array.length fs in
      Some
        (fun row ->
          let rec combine i acc =
            if i = k then acc
            else
              let h = fs.(i) row in
              if h < 0 then -1
              else combine (i + 1) (bloom_mix ((acc * 31) + h) land max_int)
          in
          combine 0 0))

(* Row-level membership pre-test over a single probe-key column, for
   pushing the build side's bloom filter into the probe-side scan: a row
   that fails cannot find a join partner, so inner and semi joins may drop
   it before the morsel is ever gathered. Null keys never join, so they
   fail too. Unsound for outer and anti joins — callers gate on kind. *)
let scan_test (t : table) (c : Column.t) : (int -> bool) option =
  match t.bloom with
  | None -> None
  | Some b ->
    let not_null test =
      match c.Column.nulls with
      | None -> test
      | Some m -> fun row -> (not (Bitset.get m row)) && test row
    in
    (match c.Column.data with
    | Column.I v ->
      Some (not_null (fun row -> bloom_may b (Bigarray.Array1.unsafe_get v row)))
    | Column.D (codes, d) ->
      (* tri-state per-code memo: -1 unknown, 0 fail, 1 may-match; races
         between domains rewrite the same immediate value, which is safe *)
      let values = d.Column.values in
      let memo = Array.make (Array.length values) (-1) in
      Some
        (not_null (fun row ->
             let code = Bigarray.Array1.unsafe_get codes row in
             match memo.(code) with
             | -1 ->
               let r = bloom_may b (bloom_hash_key (KStr values.(code))) in
               memo.(code) <- (if r then 1 else 0);
               r
             | v -> v = 1))
    | Column.S a ->
      Some (not_null (fun row -> bloom_may b (bloom_hash_key (KStr a.(row)))))
    | Column.B _ | Column.F _ -> None)
