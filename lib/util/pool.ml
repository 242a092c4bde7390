(* Work-stealing domain pool.

   Topology: one deque ({!Deque}) per slot — slot 0 belongs to the
   external caller currently mapping, slots 1..jobs-1 to the worker
   domains — plus a shared mutex-guarded inbox for [post]ed thunks and
   for forks from domains that hold no slot.  An executor looks for work
   in order: own deque bottom (LIFO, cache-warm), inbox, then a steal
   scan over everyone else's deque top (FIFO, so a thief grabs the
   oldest — i.e. biggest — pending sub-range).  [map_range] splits a
   sweep lazily: fork the right half onto the local deque, descend into
   the left, stop splitting at [cutoff] elements; an idle domain steals
   the biggest pending half and splits it further, so a sweep balances
   itself without any central division of labour.

   "Help while you wait" is preserved from the original pool: a caller
   (or nested caller) blocked on its own results runs whatever task it
   can find instead of sleeping, so some domain is always executing a
   task and nested maps on one pool cannot deadlock.  Sleeping is a
   two-phase check: a would-be sleeper registers in [sleepers] and
   re-checks every source under the pool mutex before waiting, and
   producers broadcast whenever [sleepers] is non-zero — the atomic
   ordering between the two makes lost wakeups impossible.

   Determinism contract: element results are joined by index, so a map
   is equivalent to [Array.map] for pure element functions regardless of
   [jobs] — and [jobs = 1] runs strictly left-to-right in the calling
   domain with no scheduling machinery at all.

   Lifecycle: a pool is live from [create] until [close].  [close] while
   maps are in flight retires the pool and the last map's epilogue
   performs the shutdown.  After the workers are joined, the closing
   caller drains any tasks still queued (FIFO from the inbox first, then
   leftover deque entries), so fire-and-forget [post]s are never
   silently dropped — the fix matters on [jobs = 1] pools, which have no
   workers to drain the inbox. *)

module Metrics = Rs_obs.Metrics

type task = unit -> unit

type t = {
  id : int;
  jobs : int;
  mutex : Mutex.t; (* guards inbox, live, active, retired *)
  wake : Condition.t;
  inbox : task Queue.t;
  deques : task Deque.t array; (* length jobs; slot 0 = mapping caller *)
  slot0 : int Atomic.t; (* domain id holding slot 0, or -1 *)
  sleepers : int Atomic.t;
  mutable live : bool;
  mutable active : int; (* in-flight map_range / map_ordered / run_all *)
  mutable retired : bool; (* close requested while active > 0 *)
  mutable workers : unit Domain.t list;
}

exception Closed

let m_tasks = Metrics.counter "pool.tasks"
let m_steals = Metrics.counter "pool.steals"
let m_splits = Metrics.counter "pool.splits"
let m_worker_failures = Metrics.counter "pool.worker_failures"
let m_suppressed_failures = Metrics.counter "pool.suppressed_failures"
let g_jobs = Metrics.gauge "pool.jobs"

(* Injection point for rs_fault, which sits above this library in the
   dependency graph (it needs Prng) and so cannot be called directly. *)
let fault_hook : (site:string -> key:string -> unit) ref = ref (fun ~site:_ ~key:_ -> ())

let pool_ids = Atomic.make 0

(* Which slot (deque index) this domain owns, per pool id.  Workers
   register their slot at startup; an external caller claims slot 0 for
   the duration of its outermost map. *)
let slots_key : (int * int) list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let my_slot t = List.assoc_opt t.id !(Domain.DLS.get slots_key)

(* Every executor — worker domains, helping callers, the close-time
   drain — runs tasks through this guard, which traps any escaping
   exception so one raising [post]ed thunk can neither kill a worker
   domain nor surface inside an unrelated caller's map.  Map tasks trap
   their own element errors, so the guard counter only ever fires for
   posts. *)
let exec task = try task () with _ -> Metrics.incr m_worker_failures

let wake_if_sleepers t =
  if Atomic.get t.sleepers > 0 then begin
    Mutex.lock t.mutex;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex
  end

let push_task t task =
  (match my_slot t with
  | Some s -> Deque.push t.deques.(s) task
  | None ->
    Mutex.lock t.mutex;
    Queue.add task t.inbox;
    Mutex.unlock t.mutex);
  wake_if_sleepers t

let steal_scan t ~slot =
  let n = Array.length t.deques in
  let start = if slot >= 0 then (slot + 1) mod n else 0 in
  let rec go k =
    if k >= n then None
    else
      let i = (start + k) mod n in
      if i = slot then go (k + 1)
      else
        match Deque.steal t.deques.(i) with
        | Some _ as r ->
          Metrics.incr m_steals;
          r
        | None -> go (k + 1)
  in
  go 0

let try_find t ~slot =
  match if slot >= 0 then Deque.pop t.deques.(slot) else None with
  | Some _ as r -> r
  | None -> (
    Mutex.lock t.mutex;
    let inb = Queue.take_opt t.inbox in
    Mutex.unlock t.mutex;
    match inb with Some _ -> inb | None -> steal_scan t ~slot)

(* Find a task, or sleep until one appears; returns [None] only once
   [stop ()] holds.  The sleeper registers before its final re-check and
   producers test [sleepers] after publishing, so one of the two always
   observes the other — no lost wakeups. *)
let acquire t ~slot ~stop =
  match try_find t ~slot with
  | Some _ as r -> r
  | None ->
    Mutex.lock t.mutex;
    Atomic.incr t.sleepers;
    let rec wait_loop () =
      if stop () then None
      else
        (* own deque needs no re-check: only its owner pushes to it *)
        match
          match Queue.take_opt t.inbox with
          | Some _ as r -> r
          | None -> steal_scan t ~slot
        with
        | Some _ as r -> r
        | None ->
          Condition.wait t.wake t.mutex;
          wait_loop ()
    in
    let r = wait_loop () in
    Atomic.decr t.sleepers;
    Mutex.unlock t.mutex;
    r

let worker_main t i =
  let slot = i + 1 in
  let slots = Domain.DLS.get slots_key in
  slots := (t.id, slot) :: !slots;
  (* An injected startup failure kills just this worker: the pool
     degrades to fewer helpers, and the caller-helps rule keeps every
     map completing. *)
  match !fault_hook ~site:"pool.worker_start" ~key:(string_of_int i) with
  | () ->
    let rec loop () =
      (* [stop] is only consulted once nothing is left to run, so a
         retiring pool drains its queues before the workers exit *)
      match acquire t ~slot ~stop:(fun () -> not t.live) with
      | Some task ->
        exec task;
        loop ()
      | None -> ()
    in
    loop ()
  | exception _ -> Metrics.incr m_worker_failures

let create ?jobs () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  let t =
    {
      id = Atomic.fetch_and_add pool_ids 1;
      jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      inbox = Queue.create ();
      deques = Array.init jobs (fun _ -> Deque.create ());
      slot0 = Atomic.make (-1);
      sleepers = Atomic.make 0;
      live = true;
      active = 0;
      retired = false;
      workers = [];
    }
  in
  t.workers <- List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_main t i));
  Metrics.set g_jobs jobs;
  t

let jobs t = t.jobs

let join_workers t =
  (* Never called with [t.mutex] held (workers need it to observe the
     shutdown), and never self-joining: a worker performing a deferred
     shutdown skips its own handle and exits on its own once the queues
     drain. *)
  let self = Domain.self () in
  List.iter (fun d -> if Domain.get_id d <> self then Domain.join d) t.workers;
  t.workers <- []

(* Run whatever is still queued after shutdown, in the closing caller:
   posted thunks first (FIFO, submission order), then any leftover deque
   entries.  This is what guarantees [post] on a [jobs = 1] pool — which
   has no worker to drain the inbox — still runs every thunk by [close]
   at the latest. *)
let drain_after_shutdown t =
  let rec go () =
    match try_find t ~slot:(-1) with
    | Some task ->
      exec task;
      go ()
    | None -> ()
  in
  go ()

let close t =
  Mutex.lock t.mutex;
  if t.active > 0 then begin
    (* In-flight maps still own the pool: retire it and let the last
       map's epilogue perform the shutdown. *)
    t.retired <- true;
    Mutex.unlock t.mutex
  end
  else begin
    t.live <- false;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    join_workers t;
    drain_after_shutdown t
  end

let enter_map t =
  Mutex.lock t.mutex;
  if not t.live then begin
    Mutex.unlock t.mutex;
    raise Closed
  end;
  t.active <- t.active + 1;
  Mutex.unlock t.mutex

let exit_map t =
  Mutex.lock t.mutex;
  t.active <- t.active - 1;
  let shutdown_now = t.retired && t.active = 0 in
  if shutdown_now then begin
    t.retired <- false;
    t.live <- false;
    Condition.broadcast t.wake
  end;
  Mutex.unlock t.mutex;
  if shutdown_now then begin
    join_workers t;
    drain_after_shutdown t
  end

(* Slot 0 is reserved for whichever external domain is currently inside
   a map; nested maps reuse the claim, and a second concurrent external
   caller simply runs slotless (its forks go through the inbox). *)
let claim_slot t =
  if t.jobs <= 1 then false
  else
    match my_slot t with
    | Some _ -> false
    | None ->
      if Atomic.compare_and_set t.slot0 (-1) (Domain.self () :> int) then begin
        let slots = Domain.DLS.get slots_key in
        slots := (t.id, 0) :: !slots;
        true
      end
      else false

let release_slot t =
  let slots = Domain.DLS.get slots_key in
  slots := List.filter (fun (id, _) -> id <> t.id) !slots;
  Atomic.set t.slot0 (-1)

let map_range (type b) t ?(cutoff = 1) ~lo ~hi (f : int -> b) : b array =
  if cutoff < 1 then invalid_arg "Pool.map_range: cutoff must be positive";
  let n = hi - lo in
  if n <= 0 then [||]
  else begin
    enter_map t;
    Fun.protect ~finally:(fun () -> exit_map t) @@ fun () ->
    if t.jobs = 1 || n = 1 then begin
      (* strictly left-to-right in the calling domain *)
      let first = f lo in
      let out = Array.make n first in
      for i = 1 to n - 1 do
        out.(i) <- f (lo + i)
      done;
      out
    end
    else begin
      let results : b option array = Array.make n None in
      let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
      let remaining = Atomic.make n in
      let claimed = claim_slot t in
      Fun.protect ~finally:(fun () -> if claimed then release_slot t) @@ fun () ->
      let leaf l h =
        for i = l to h - 1 do
          Metrics.incr m_tasks;
          try results.(i - lo) <- Some (f i)
          with e -> errors.(i - lo) <- Some (e, Printexc.get_raw_backtrace ())
        done;
        ignore (Atomic.fetch_and_add remaining (l - h) : int);
        wake_if_sleepers t
      in
      (* Lazy binary splitting: fork the right half onto the local deque
         (where a thief can find it), descend into the left. *)
      let rec go l h =
        if h - l <= cutoff then leaf l h
        else begin
          let mid = l + ((h - l) / 2) in
          Metrics.incr m_splits;
          push_task t (fun () -> go mid h);
          go l mid
        end
      in
      go lo hi;
      (* the caller is the pool's jobs-th executor: help until every
         element of this map has settled *)
      let slot = match my_slot t with Some s -> s | None -> -1 in
      let stop () = Atomic.get remaining = 0 in
      let rec help () =
        if not (stop ()) then begin
          (match acquire t ~slot ~stop with Some task -> exec task | None -> ());
          help ()
        end
      in
      help ();
      (* Re-raise the lowest-indexed failure with its original backtrace;
         further failures cannot also propagate, so they are surfaced
         through the [pool.suppressed_failures] counter instead of being
         silently discarded. *)
      let first = ref None in
      let suppressed = ref 0 in
      Array.iter
        (function
          | Some eb -> if Option.is_none !first then first := Some eb else incr suppressed
          | None -> ())
        errors;
      (match !first with
      | Some (e, bt) ->
        if !suppressed > 0 then Metrics.add m_suppressed_failures !suppressed;
        Printexc.raise_with_backtrace e bt
      | None -> ());
      Array.map (function Some r -> r | None -> assert false) results
    end
  end

let parallel_for t ?cutoff ~lo ~hi f =
  ignore (map_range t ?cutoff ~lo ~hi f : unit array)

let map_ordered t f arr =
  let n = Array.length arr in
  if t.jobs = 1 || n <= 1 then begin
    enter_map t;
    Fun.protect ~finally:(fun () -> exit_map t) @@ fun () -> Array.map f arr
  end
  else
    map_range t ~cutoff:1 ~lo:0 ~hi:n (fun i ->
        let traced = Rs_obs.Trace.enabled () in
        let dom = (Domain.self () :> int) in
        if traced then
          Rs_obs.Trace.emit "task" [ S ("event", "start"); I ("domain", dom); I ("index", i) ];
        let r =
          try
            !fault_hook ~site:"pool.task" ~key:(string_of_int i);
            Ok (f arr.(i))
          with e -> Error (e, Printexc.get_raw_backtrace ())
        in
        if traced then
          Rs_obs.Trace.emit "task" [ S ("event", "stop"); I ("domain", dom); I ("index", i) ];
        match r with Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let run_all t thunks =
  Array.to_list (map_ordered t (fun thunk -> thunk ()) (Array.of_list thunks))

let post t thunk =
  Mutex.lock t.mutex;
  if not t.live then begin
    Mutex.unlock t.mutex;
    raise Closed
  end;
  Queue.add thunk t.inbox;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex

(* --- scheduler counters ----------------------------------------------- *)

type stats = {
  tasks : int;
  steals : int;
  splits : int;
  spec_started : int;
  spec_cancelled : int;
  worker_failures : int;
  suppressed_failures : int;
}

let stats () =
  {
    tasks = Metrics.counter_value m_tasks;
    steals = Metrics.counter_value m_steals;
    splits = Metrics.counter_value m_splits;
    spec_started = 0;
    spec_cancelled = 0;
    worker_failures = Metrics.counter_value m_worker_failures;
    suppressed_failures = Metrics.counter_value m_suppressed_failures;
  }

let describe (s : stats) =
  Printf.sprintf "pool: tasks %d, steals %d, splits %d" s.tasks s.steals s.splits

(* Process-wide pool, sized by the most recent request. *)
let shared_mutex = Mutex.create ()
let shared_pool : t option ref = ref None

let shared ~jobs =
  let jobs = max 1 jobs in
  Mutex.lock shared_mutex;
  let pool =
    match !shared_pool with
    | Some p when p.jobs = jobs -> p
    | prev ->
      (* [close] defers the old pool's shutdown until its in-flight maps
         finish, so a caller still holding it keeps a working pool. *)
      (match prev with Some p -> close p | None -> ());
      let p = create ~jobs () in
      shared_pool := Some p;
      p
  in
  Mutex.unlock shared_mutex;
  pool
