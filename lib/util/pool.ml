(* Self-scheduling domain pool.

   Topology: [jobs - 1] worker domains and one mutex-guarded queue of
   helper tasks.  A map splits its range into [ceil (n / cutoff)] chunks
   and hands them out through an atomic index: the caller claims chunks
   first, and at most [jobs - 1] helper tasks, pushed onto the queue,
   claim from the same index on whichever executor dequeues them.  A
   helper that finds every chunk claimed is a no-op, so a stale helper
   costs one dequeue.

   "Help while you wait": a caller whose chunks are all claimed runs
   queued helper tasks (of any map, nested ones included) until its own
   map settles, and sleeps on the pool's condition only while the queue
   is empty.  Every claimed chunk is being run by some executor, so
   nested maps on one pool cannot deadlock.  Sleepers re-check under the
   pool mutex before waiting, and every producer (a push, the chunk that
   settles a map, shutdown) broadcasts under the same mutex, so no
   wakeup is lost.

   Determinism contract: element results are joined by index, so a map
   is equivalent to [Array.map] for pure element functions regardless of
   [jobs] — and [jobs = 1] runs strictly left-to-right in the calling
   domain with no scheduling machinery at all.

   Lifecycle: a pool is live from [create] until [close].  [close] while
   maps are in flight retires the pool and the last map's epilogue
   performs the shutdown.  Helpers left in the queue at shutdown belong
   to settled maps, so the workers exit without running them. *)

module Metrics = Rs_obs.Metrics

type t = {
  jobs : int;
  mutex : Mutex.t; (* guards queue, live, active, retired *)
  wake : Condition.t;
  queue : (unit -> unit) Queue.t; (* helper tasks *)
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

let broadcast t =
  Mutex.lock t.mutex;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex

(* Run queued helper tasks until [stop ()] holds, sleeping while the
   queue is empty.  [stop] is evaluated under the pool mutex.  Helper
   tasks never raise: element errors are trapped per element. *)
let help_until t ~stop =
  Mutex.lock t.mutex;
  let rec loop () =
    if not (stop ()) then begin
      (match Queue.take_opt t.queue with
      | Some task ->
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex
      | None -> Condition.wait t.wake t.mutex);
      loop ()
    end
  in
  loop ();
  Mutex.unlock t.mutex

let worker_main t i =
  (* An injected startup failure kills just this worker: the pool
     degrades to fewer helpers, and callers claiming their own chunks
     keep every map completing. *)
  match !fault_hook ~site:"pool.worker_start" ~key:(string_of_int i) with
  | () -> help_until t ~stop:(fun () -> not t.live)
  | exception _ -> Metrics.incr m_worker_failures

let create ?jobs () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Domain.recommended_domain_count ())
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      wake = Condition.create ();
      queue = Queue.create ();
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

(* Stop the workers and join them.  Never called with [t.mutex] held
   (workers need it to observe the shutdown), and never self-joining. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.live <- false;
  Condition.broadcast t.wake;
  Mutex.unlock t.mutex;
  let self = Domain.self () in
  List.iter (fun d -> if Domain.get_id d <> self then Domain.join d) t.workers;
  t.workers <- []

let close t =
  Mutex.lock t.mutex;
  (* In-flight maps still own the pool: retire it and let the last
     map's epilogue perform the shutdown. *)
  let busy = t.active > 0 in
  if busy then t.retired <- true;
  Mutex.unlock t.mutex;
  if not busy then shutdown t

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
  if shutdown_now then t.retired <- false;
  Mutex.unlock t.mutex;
  if shutdown_now then shutdown t

let parallel_map (type b) t ~cutoff ~lo n (f : int -> b) : b array =
  let results : b option array = Array.make n None in
  let errors : (exn * Printexc.raw_backtrace) option array = Array.make n None in
  let chunks = (n + cutoff - 1) / cutoff in
  let next = Atomic.make 0 in
  let pending = Atomic.make chunks in
  let run_chunk c =
    for i = c * cutoff to min n ((c + 1) * cutoff) - 1 do
      try results.(i) <- Some (f (lo + i))
      with e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ())
    done;
    (* the chunk that settles the map wakes its caller *)
    if Atomic.fetch_and_add pending (-1) = 1 then broadcast t
  in
  let rec claim ~helper =
    let c = Atomic.fetch_and_add next 1 in
    if c < chunks then begin
      if helper then Metrics.incr m_steals;
      run_chunk c;
      claim ~helper
    end
  in
  let helpers = min (t.jobs - 1) (chunks - 1) in
  if helpers > 0 then begin
    let task () = claim ~helper:true in
    Mutex.lock t.mutex;
    for _ = 1 to helpers do
      Queue.add task t.queue
    done;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    Metrics.add m_splits helpers
  end;
  claim ~helper:false;
  help_until t ~stop:(fun () -> Atomic.get pending = 0);
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

let map_range t ?(cutoff = 1) ~lo ~hi f =
  if cutoff < 1 then invalid_arg "Pool.map_range: cutoff must be positive";
  let n = hi - lo in
  if n <= 0 then [||]
  else begin
    enter_map t;
    Fun.protect ~finally:(fun () -> exit_map t) @@ fun () ->
    Metrics.add m_tasks n;
    (* strictly left-to-right in the calling domain *)
    if t.jobs = 1 || n = 1 then Array.init n (fun i -> f (lo + i))
    else parallel_map t ~cutoff ~lo n f
  end

let map_ordered t f arr =
  map_range t ~lo:0 ~hi:(Array.length arr) (fun i ->
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
