(* Packed record-once/replay-many traces.

   Event encoding: one OCaml immediate int per event —

     bit 0       taken
     bits 1-20   instruction delta from the previous event (< 2^20)
     bits 21-61  branch id

   Chunks are plain [int array]s of [chunk_size] entries, preallocated
   at record time, so a replay touches nothing but flat memory and the
   GC never scans per-event boxes. *)

let chunk_bits = 15
let chunk_size = 1 lsl chunk_bits
let delta_bits = 20
let max_delta = (1 lsl delta_bits) - 1
let delta_mask = max_delta
let branch_shift = delta_bits + 1

type t = {
  config : Stream.config;
  n_branches : int;
  chunks : int array array;  (* all full except possibly the last *)
  last_len : int;  (* live entries in the final chunk *)
  exec_totals : int array;
}

let config t = t.config
let n_branches t = t.n_branches
let length t = t.config.Stream.length
let exec_counts t = Array.copy t.exec_totals

let bytes t =
  (* header word + [chunk_size] value words per chunk, 8 bytes each *)
  Array.length t.chunks * (chunk_size + 1) * 8

let matches t pop cfg = t.config = cfg && t.n_branches = Population.size pop

let packed_branch w = w lsr branch_shift
let packed_taken w = w land 1 = 1
let packed_delta w = (w lsr 1) land delta_mask

let fault_hook : (site:string -> key:string -> unit) ref = ref (fun ~site:_ ~key:_ -> ())

let record pop (cfg : Stream.config) =
  !fault_hook ~site:"trace_store.record"
    ~key:(Printf.sprintf "seed=%d/len=%d" cfg.seed cfg.length);
  let n = Population.size pop in
  if (n - 1) lsl branch_shift < 0 then
    invalid_arg "Trace_store.record: population too large to pack";
  Stream.validate ~caller:"Trace_store.record" cfg;
  let n_chunks = (cfg.length + chunk_size - 1) lsr chunk_bits in
  let chunks = Array.init n_chunks (fun _ -> Array.make chunk_size 0) in
  let pos = ref 0 in
  let last_instr = ref 0 in
  (* The raw generator hands over plain integers, so recording allocates
     nothing per event: the only heap traffic is the preallocated chunks
     above (large enough to be allocated directly on the major heap). *)
  let exec_totals =
    Stream.iter_raw pop cfg (fun ~branch ~taken ~exec_index:_ ~instr ->
        let delta = instr - !last_instr in
        last_instr := instr;
        (* A negative delta would pack sign bits into the branch-id field
           and corrupt it silently; reject it like [of_events] does. *)
        if delta < 0 then
          invalid_arg "Trace_store.record: instruction counts must not decrease";
        if delta > max_delta then
          invalid_arg "Trace_store.record: instruction delta does not fit in 20 bits";
        let i = !pos in
        Array.unsafe_set
          (Array.unsafe_get chunks (i lsr chunk_bits))
          (i land (chunk_size - 1))
          ((branch lsl branch_shift) lor (delta lsl 1) lor Bool.to_int taken);
        pos := i + 1)
  in
  let last_len =
    let r = cfg.length land (chunk_size - 1) in
    if r = 0 then chunk_size else r
  in
  { config = cfg; n_branches = n; chunks; last_len; exec_totals }

let of_events ~n_branches ~(config : Stream.config) emit =
  if n_branches <= 0 then invalid_arg "Trace_store.of_events: n_branches must be positive";
  if (n_branches - 1) lsl branch_shift < 0 then
    invalid_arg "Trace_store.of_events: population too large to pack";
  Stream.validate ~caller:"Trace_store.of_events" config;
  let n_chunks = (config.length + chunk_size - 1) lsr chunk_bits in
  let chunks = Array.init n_chunks (fun _ -> Array.make chunk_size 0) in
  let pos = ref 0 in
  let last_instr = ref 0 in
  let exec_totals = Array.make n_branches 0 in
  emit (fun ~branch ~taken ~instr ->
      if branch < 0 || branch >= n_branches then
        invalid_arg "Trace_store.of_events: branch id out of range";
      if !pos >= config.length then
        invalid_arg "Trace_store.of_events: more events than config.length";
      let delta = instr - !last_instr in
      if delta < 0 then invalid_arg "Trace_store.of_events: instruction counts must not decrease";
      if delta > max_delta then
        invalid_arg "Trace_store.of_events: instruction delta does not fit in 20 bits";
      last_instr := instr;
      exec_totals.(branch) <- exec_totals.(branch) + 1;
      let i = !pos in
      Array.unsafe_set
        (Array.unsafe_get chunks (i lsr chunk_bits))
        (i land (chunk_size - 1))
        ((branch lsl branch_shift) lor (delta lsl 1) lor Bool.to_int taken);
      pos := i + 1);
  if !pos <> config.length then
    invalid_arg "Trace_store.of_events: fewer events than config.length";
  let last_len =
    let r = config.length land (chunk_size - 1) in
    if r = 0 then chunk_size else r
  in
  { config; n_branches; chunks; last_len; exec_totals }

let iter_packed t f =
  let last = Array.length t.chunks - 1 in
  for c = 0 to last do
    f t.chunks.(c) (if c = last then t.last_len else chunk_size)
  done

let fold_packed_chunks t ~init f =
  let last = Array.length t.chunks - 1 in
  let acc = ref init in
  for c = 0 to last do
    acc := f !acc t.chunks.(c) (if c = last then t.last_len else chunk_size)
  done;
  !acc

let replay_counted t f =
  let exec = Array.make t.n_branches 0 in
  let instr = ref 0 in
  iter_packed t (fun chunk len ->
      for i = 0 to len - 1 do
        let w = Array.unsafe_get chunk i in
        let branch = packed_branch w in
        instr := !instr + packed_delta w;
        let exec_index = Array.unsafe_get exec branch in
        Array.unsafe_set exec branch (exec_index + 1);
        f { Stream.branch; taken = packed_taken w; exec_index; instr = !instr }
      done);
  exec

let replay t f = ignore (replay_counted t f : int array)

(* ---------------------------------------------------------------------- *)
(* Process-global LRU                                                      *)
(* ---------------------------------------------------------------------- *)

let default_capacity_mb = 512
let env_var = "RS_TRACE_CACHE_MB"

let initial_capacity =
  let mb =
    match Sys.getenv_opt env_var with
    | Some s -> ( try int_of_string (String.trim s) with _ -> default_capacity_mb)
    | None -> default_capacity_mb
  in
  max 0 mb * 1024 * 1024

type entry = { trace : t; mutable stamp : int }
type slot = In_flight | Ready of entry

(* One lock guards the table, the recency stamps and the byte total;
   recording happens outside it under an [In_flight] marker, exactly
   like the artifact cache's compute slots. *)
let lock = Mutex.create ()
let published = Condition.create ()
let table : (string * Stream.config, slot) Hashtbl.t = Hashtbl.create 16
let tick = ref 0
let held_bytes = ref 0
let capacity = ref initial_capacity

let hits = Atomic.make 0
let misses = Atomic.make 0
let evictions = Atomic.make 0

let m_hits = Rs_obs.Metrics.counter "trace_store.hits"
let m_misses = Rs_obs.Metrics.counter "trace_store.misses"
let m_evictions = Rs_obs.Metrics.counter "trace_store.evictions"
let g_bytes = Rs_obs.Metrics.gauge "trace_store.bytes"
let g_entries = Rs_obs.Metrics.gauge "trace_store.entries"

let trace_event ~key outcome =
  if Rs_obs.Trace.enabled () then
    Rs_obs.Trace.emit "trace_store" [ S ("outcome", outcome); S ("key", key) ]

let count_lookup ~key ~hit =
  Atomic.incr (if hit then hits else misses);
  Rs_obs.Metrics.incr (if hit then m_hits else m_misses);
  trace_event ~key (if hit then "hit" else "miss")

(* Entry/byte gauges are refreshed under [lock] after every mutation. *)
let refresh_gauges () =
  Rs_obs.Metrics.set g_bytes !held_bytes;
  let entries =
    Hashtbl.fold (fun _ slot n -> match slot with Ready _ -> n + 1 | In_flight -> n) table 0
  in
  Rs_obs.Metrics.set g_entries entries

(* Evict least-recently-used [Ready] entries until the held bytes fit.
   Called with [lock] held. *)
let evict_to_fit () =
  while
    !held_bytes > !capacity
    &&
    let victim = ref None in
    Hashtbl.iter
      (fun k slot ->
        match slot with
        | Ready e -> (
          match !victim with
          | Some (_, oldest) when oldest.stamp <= e.stamp -> ()
          | _ -> victim := Some (k, e))
        | In_flight -> ())
      table;
    match !victim with
    | None -> false
    | Some (((key, _) as k), e) ->
      Hashtbl.remove table k;
      held_bytes := !held_bytes - bytes e.trace;
      Atomic.incr evictions;
      Rs_obs.Metrics.incr m_evictions;
      trace_event ~key "evict";
      true
  do
    ()
  done

let cached ~key pop cfg =
  let k = (key, cfg) in
  Mutex.lock lock;
  let rec get () =
    match Hashtbl.find_opt table k with
    | Some (Ready e) ->
      incr tick;
      e.stamp <- !tick;
      Mutex.unlock lock;
      count_lookup ~key ~hit:true;
      e.trace
    | Some In_flight ->
      Condition.wait published lock;
      get ()
    | None ->
      Hashtbl.replace table k In_flight;
      Mutex.unlock lock;
      count_lookup ~key ~hit:false;
      let trace =
        try record pop cfg
        with e ->
          (* drop our marker so waiters recompute instead of parking *)
          Mutex.lock lock;
          (match Hashtbl.find_opt table k with
          | Some In_flight -> Hashtbl.remove table k
          | _ -> ());
          Condition.broadcast published;
          Mutex.unlock lock;
          raise e
      in
      let b = bytes trace in
      Mutex.lock lock;
      (if b <= !capacity then begin
         incr tick;
         Hashtbl.replace table k (Ready { trace; stamp = !tick });
         held_bytes := !held_bytes + b;
         evict_to_fit ()
       end
       else
         (* too large to ever fit: serve it uncached *)
         match Hashtbl.find_opt table k with
         | Some In_flight -> Hashtbl.remove table k
         | _ -> ());
      refresh_gauges ();
      Condition.broadcast published;
      Mutex.unlock lock;
      trace
  in
  get ()

type stats = { hits : int; misses : int; evictions : int; entries : int; bytes : int }

let stats () =
  Mutex.lock lock;
  let entries =
    Hashtbl.fold (fun _ slot n -> match slot with Ready _ -> n + 1 | In_flight -> n) table 0
  in
  let bytes = !held_bytes in
  Mutex.unlock lock;
  {
    hits = Atomic.get hits;
    misses = Atomic.get misses;
    evictions = Atomic.get evictions;
    entries;
    bytes;
  }

let capacity_bytes () = !capacity

let set_capacity_bytes b =
  Mutex.lock lock;
  capacity := max 0 b;
  evict_to_fit ();
  refresh_gauges ();
  Mutex.unlock lock

(* ---------------------------------------------------------------------- *)
(* Automatic record-then-replay memo                                       *)
(* ---------------------------------------------------------------------- *)

(* Streams are pure in (population, config), so a consumer called twice
   on the SAME population value and config replays one recording.  The
   memo keys on physical identity of the population — structural hashing
   of behaviour models could conflate distinct populations, physical
   equality cannot — plus structural config equality, and is a small
   bounded FIFO: entries hold strong references, so a hard cap keeps the
   worst case to [auto_capacity] packed traces (the experiment runner
   passes explicit [cached] traces and never reaches this path).

   This is what makes "generation" run the packed decoder: simulation
   entry points without an explicit trace record once through [auto] and
   then iterate chunks, byte-identical to live generation. *)

let auto_capacity = 8

type auto_entry = { a_pop : Population.t; a_cfg : Stream.config; a_trace : t }

let auto_entries : auto_entry option array = Array.make auto_capacity None
let auto_next = ref 0 (* FIFO cursor, guarded by [lock] *)
let replay_enabled () = !capacity > 0

let auto_find pop cfg =
  let found = ref None in
  for i = 0 to auto_capacity - 1 do
    match auto_entries.(i) with
    | Some e when e.a_pop == pop && e.a_cfg = cfg -> found := Some e.a_trace
    | _ -> ()
  done;
  !found

let auto pop cfg =
  if not (replay_enabled ()) then None
  else begin
    Mutex.lock lock;
    let hit = auto_find pop cfg in
    Mutex.unlock lock;
    match hit with
    | Some _ as r -> r
    | None ->
      (* Record outside the lock; a racing domain recording the same pair
         publishes an identical trace, so last-write-wins is benign. *)
      let trace = record pop cfg in
      Mutex.lock lock;
      (match auto_find pop cfg with
      | Some tr ->
        Mutex.unlock lock;
        Some tr
      | None ->
        auto_entries.(!auto_next) <- Some { a_pop = pop; a_cfg = cfg; a_trace = trace };
        auto_next := (!auto_next + 1) mod auto_capacity;
        Mutex.unlock lock;
        Some trace)
  end

let auto_clear () =
  Mutex.lock lock;
  Array.fill auto_entries 0 auto_capacity None;
  auto_next := 0;
  Mutex.unlock lock

let clear () =
  auto_clear ();
  Mutex.lock lock;
  (* keep [In_flight] markers: their recorder will publish (or drop)
     them; dropping someone else's marker here would strand waiters *)
  let ready =
    Hashtbl.fold
      (fun k slot acc -> match slot with Ready _ -> k :: acc | In_flight -> acc)
      table []
  in
  List.iter (Hashtbl.remove table) ready;
  held_bytes := 0;
  Atomic.set hits 0;
  Atomic.set misses 0;
  Atomic.set evictions 0;
  refresh_gauges ();
  Condition.broadcast published;
  Mutex.unlock lock
