(* In-memory span recorder for the traced benchmark run.

   Spans are opened around calls into each layer's public functions from
   the benchmark's own code; nothing inside lib/ is instrumented. A span
   records its name, start, end, the span it was opened under and the
   request it belongs to. Recording is off unless [enabled] is set, and
   spans stay in memory until [write] dumps them at exit. *)

type span = {
  id : int;
  parent : int; (* 0 = top level *)
  name : string;
  req : int; (* 0 = outside any request *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let lock = Mutex.create ()
let pending : span list ref = ref [] (* not yet drained *)
let kept : span list ref = ref [] (* everything, for [write] *)
let next_id = Atomic.make 1
let next_req = Atomic.make 1

(* The open span and request of the calling domain: server workers record
   spans concurrently with the main domain. *)
let current = Domain.DLS.new_key (fun () -> 0)
let current_req = Domain.DLS.new_key (fun () -> 0)

let span name f =
  if not !enabled then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = Domain.DLS.get current in
    let req = Domain.DLS.get current_req in
    Domain.DLS.set current id;
    let t0 = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Unix.gettimeofday () in
        Domain.DLS.set current parent;
        Mutex.protect lock (fun () ->
            pending := { id; parent; name; req; t0; t1 } :: !pending))
  end

(* Run [f] as one request: a fresh request id and a root span [name]. *)
let request name f =
  if not !enabled then f ()
  else begin
    let saved = Domain.DLS.get current_req in
    Domain.DLS.set current_req (Atomic.fetch_and_add next_req 1);
    Fun.protect
      (fun () -> span name f)
      ~finally:(fun () -> Domain.DLS.set current_req saved)
  end

(* Spans recorded since the last drain. *)
let drain () =
  Mutex.protect lock (fun () ->
      let s = !pending in
      pending := [];
      kept := List.rev_append s !kept;
      List.rev s)

(* Self time of every span: its duration minus the part of its interval
   that its children cover. Returns (name, self seconds) pairs. *)
let self_times (spans : span list) : (string * float) list =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      (* union of child intervals, merged left to right *)
      let covered, _ =
        List.fold_left
          (fun (acc, hi) (a, b) ->
            let a = Float.max a hi in
            if b > a then (acc +. (b -. a), b) else (acc, hi))
          (0., neg_infinity) kids
      in
      (s.name, s.t1 -. s.t0 -. covered))
    spans

let write path =
  ignore (drain ());
  let spans = List.sort (fun a b -> compare a.id b.id) !kept in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        s.id s.parent s.name s.req s.t0 s.t1)
    spans;
  close_out oc
