(* Host-speed reference for the gated times.

   The benchmark shares a few cores with other tenants, and their load
   moves this process's speed by a quarter or more for tens of seconds at
   a time, so two runs of the same code can differ by more than any useful
   regression bound. Every gated time is therefore divided by the time of
   this fixed kernel, measured next to it in the same run. The kernel is
   the benchmark's own code on the Stdlib alone: no change to the program
   moves it, while a busier host slows it as it slows the program.

   The kernel does the kind of work the executors do, without allocating,
   so the state of the program's heap does not move it: it scans a float
   column with a filter, sums the survivors into per-key accumulators and
   sorts a copy of a slice. Its arrays (about 1.6 MB) do not fit in a
   private cache, so memory contention from other tenants shows in it as
   it does in the program. Each call needs its own [scratch]. *)

let now = Unix.gettimeofday
let n = 100_000
let col = Array.init n (fun i -> float ((i * 7919) mod 1000) /. 10.)
let keys = Array.init n (fun i -> (i * 104_729) mod 4093)
let slice = 10_000

type scratch = { acc : float array; sorted : float array }

let scratch () = { acc = Array.make 4093 0.; sorted = Array.make slice 0. }

let kernel sc =
  Array.fill sc.acc 0 (Array.length sc.acc) 0.;
  for i = 0 to n - 1 do
    let x = Array.unsafe_get col i in
    if x < 75. then begin
      let k = Array.unsafe_get keys i in
      sc.acc.(k) <- sc.acc.(k) +. x
    end
  done;
  Array.blit col (n - slice) sc.sorted 0 slice;
  Array.sort Float.compare sc.sorted;
  ignore (Sys.opaque_identity sc)

(* One kernel on each of [domains] domains at once (this one included),
   timed from a common start until every copy is done; the helper domains
   are spawned before and joined after the timed region. At two domains the
   kernel also needs the second core, as the program's parallel regions
   do. *)
let time ~domains =
  if domains <= 1 then begin
    let sc = scratch () in
    let t0 = now () in
    kernel sc;
    now () -. t0
  end
  else begin
    let helpers = domains - 1 in
    let ready = Atomic.make 0 and go = Atomic.make false and finished = Atomic.make 0 in
    let helper () =
      let sc = scratch () in
      Atomic.incr ready;
      while not (Atomic.get go) do Domain.cpu_relax () done;
      kernel sc;
      Atomic.incr finished
    in
    let ds = List.init helpers (fun _ -> Domain.spawn helper) in
    let sc = scratch () in
    while Atomic.get ready < helpers do Domain.cpu_relax () done;
    let t0 = now () in
    Atomic.set go true;
    kernel sc;
    while Atomic.get finished < helpers do Domain.cpu_relax () done;
    let t = now () -. t0 in
    List.iter Domain.join ds;
    t
  end

(* The kernel followed by a burst of short-lived allocation (16 MB of
   two-word blocks, of which none survives), timed on the calling domain.
   The allocation runs several minor collections, and each one stops
   every domain, so on a domain whose siblings are blocked it also pays
   the cross-core wake-ups those collections need, as the program's work
   on that domain does. *)
let churn_blocks = 1_000_000

let time_with_churn () =
  let sc = scratch () in
  let t0 = now () in
  kernel sc;
  for i = 1 to churn_blocks do
    ignore (Sys.opaque_identity (ref i))
  done;
  now () -. t0
