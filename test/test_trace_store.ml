module B = Rs_behavior.Behavior
module Pop = Rs_behavior.Population
module Stream = Rs_behavior.Stream
module TS = Rs_behavior.Trace_store
module Prng = Rs_util.Prng

(* A mixed-behaviour population, deterministic in [seed]. *)
let mk_pop ~n seed =
  let rng = Prng.create (seed + 101) in
  Pop.create
    (Array.init n (fun id ->
         let behavior =
           match Prng.int rng 4 with
           | 0 -> B.Stationary (Prng.float rng 1.0)
           | 1 -> B.Flip_at { threshold = 1 + Prng.int rng 500; first = Prng.int rng 2 = 0 }
           | 2 -> B.Stationary 0.999
           | _ -> B.Stationary 0.5
         in
         { Pop.id; behavior; weight = 0.1 +. Prng.float rng 2.0 }))

let events_of_iter iter =
  let evs = ref [] in
  iter (fun (ev : Stream.event) -> evs := (ev.branch, ev.taken, ev.exec_index, ev.instr) :: !evs);
  List.rev !evs

(* The core contract: record + replay is the exact event sequence
   generation produces — branch, outcome, per-branch execution index and
   the absolute instruction counter — plus identical execution totals. *)
let qcheck_replay_exact =
  QCheck.Test.make ~name:"record+replay == Stream.iter" ~count:60
    QCheck.(
      quad (int_bound 1000) (int_range 1 6) (int_range 1 3_000) (int_range 1 8))
    (fun (seed, n, length, ipb) ->
      let pop = mk_pop ~n seed in
      let cfg = { Stream.seed; instr_per_branch = float_of_int ipb; length } in
      let tr = TS.record pop cfg in
      events_of_iter (Stream.iter pop cfg) = events_of_iter (TS.replay tr)
      && Stream.exec_counts pop cfg = TS.exec_counts tr
      && TS.replay_counted tr ignore = TS.exec_counts tr
      && TS.length tr = length)

let test_engine_replay_equivalence () =
  (* A full engine run off a trace must equal the run off the live
     stream: result counters, gap statistics, hook sequences. *)
  let pop = mk_pop ~n:12 42 in
  let cfg = { Stream.seed = 9; instr_per_branch = 5.0; length = 40_000 } in
  let params = Rs_core.Params.default in
  let tr = TS.record pop cfg in
  let run trace =
    let transitions = ref [] in
    let observed = ref 0 in
    let r =
      Rs_sim.Engine.run
        ~observer:(fun ev d -> if d.speculate && ev.taken then incr observed)
        ~on_transition:(fun t -> transitions := t :: !transitions)
        ?trace pop cfg params
    in
    ((r.total_events, r.total_instructions, r.correct, r.incorrect), !observed, !transitions)
  in
  Alcotest.(check bool) "hook run identical" true (run (Some tr) = run None);
  (* and the hook-free fast path agrees on the result counters *)
  let bare trace =
    let r = Rs_sim.Engine.run ?trace pop cfg params in
    (r.total_events, r.total_instructions, r.correct, r.incorrect,
     Rs_util.Running_stats.mean r.misspec_gap)
  in
  Alcotest.(check bool) "fast path identical" true (bare (Some tr) = bare None)

let test_engine_rejects_mismatch () =
  let pop = mk_pop ~n:4 1 in
  let cfg = { Stream.seed = 2; instr_per_branch = 4.0; length = 500 } in
  let tr = TS.record pop cfg in
  Alcotest.check_raises "config mismatch"
    (Invalid_argument "Engine.run: trace was recorded for a different (population, config)")
    (fun () ->
      ignore
        (Rs_sim.Engine.run ~trace:tr pop { cfg with seed = 3 } Rs_core.Params.default
          : Rs_sim.Engine.result))

(* Run [f] with the trace-store capacity set to [cap], restoring the
   previous capacity and clearing afterwards whatever happens. *)
let with_capacity cap f =
  let saved = TS.capacity_bytes () in
  TS.clear ();
  TS.set_capacity_bytes cap;
  Fun.protect
    ~finally:(fun () ->
      TS.set_capacity_bytes saved;
      TS.clear ())
    f

let test_lru_bound () =
  let pop = mk_pop ~n:8 7 in
  let cfg = { Stream.seed = 11; instr_per_branch = 5.0; length = 5_000 } in
  let sz = TS.bytes (TS.record pop cfg) in
  (* room for exactly two traces *)
  with_capacity (2 * sz) (fun () ->
      let t1 = TS.cached ~key:"k1" pop cfg in
      let k2_events = events_of_iter (TS.replay (TS.cached ~key:"k2" pop cfg)) in
      (* touch k1 so k2 is the least recently used *)
      let t1' = TS.cached ~key:"k1" pop cfg in
      Alcotest.(check bool) "hit returns the same trace" true (t1 == t1');
      let _ = TS.cached ~key:"k3" pop cfg in
      let s = TS.stats () in
      Alcotest.(check int) "capacity respected: entries" 2 s.entries;
      Alcotest.(check bool) "capacity respected: bytes" true (s.bytes <= 2 * sz);
      Alcotest.(check int) "one eviction" 1 s.evictions;
      Alcotest.(check int) "hits counted" 1 s.hits;
      Alcotest.(check int) "misses counted" 3 s.misses;
      (* the evicted key re-records to a byte-identical trace *)
      let k2_again = TS.cached ~key:"k2" pop cfg in
      Alcotest.(check bool) "re-record after eviction is identical" true
        (events_of_iter (TS.replay k2_again) = k2_events))

let test_capacity_zero_disables () =
  let pop = mk_pop ~n:4 3 in
  let cfg = { Stream.seed = 5; instr_per_branch = 3.0; length = 1_000 } in
  with_capacity 0 (fun () ->
      let a = TS.cached ~key:"k" pop cfg in
      let b = TS.cached ~key:"k" pop cfg in
      Alcotest.(check bool) "each call records afresh" false (a == b);
      let s = TS.stats () in
      Alcotest.(check int) "nothing held" 0 s.entries;
      Alcotest.(check int) "no bytes held" 0 s.bytes;
      Alcotest.(check int) "both were misses" 2 s.misses)

let test_record_names_stream_guards () =
  let pop = mk_pop ~n:2 1 in
  Alcotest.check_raises "record names itself"
    (Invalid_argument "Trace_store.record: length must be positive") (fun () ->
      ignore (TS.record pop { Stream.seed = 0; instr_per_branch = 2.0; length = 0 } : TS.t))

(* A decreasing instruction count would pack as garbage delta bits and
   corrupt the trace silently; both packers must reject it by name. *)
let test_rejects_decreasing_instr () =
  let cfg = { Stream.seed = 0; instr_per_branch = 2.0; length = 3 } in
  Alcotest.check_raises "of_events rejects decreasing instr"
    (Invalid_argument "Trace_store.of_events: instruction counts must not decrease") (fun () ->
      ignore
        (TS.of_events ~n_branches:2 ~config:cfg (fun push ->
             push ~branch:0 ~taken:true ~instr:10;
             push ~branch:1 ~taken:false ~instr:4)
          : TS.t))

(* Figure5 rendered through trace replay vs live regeneration.  A zero
   trace-store capacity makes the cache hand out no traces, so the live
   arm generates every stream (the store records nothing); the replayed
   arm records each stream once.  The sweep's output must be
   byte-identical either way. *)
(* Fabricated traces are shared only through the LRU: with room for one
   trace, A then B evicts A, so asking for A again records it afresh.  A
   memo pinning every fabricated trace would serve the second A from
   memory and count two misses, not three. *)
let test_fabricated_not_pinned () =
  let pop = mk_pop ~n:6 5 in
  let cfg = { Stream.seed = 13; instr_per_branch = 4.0; length = 4_000 } in
  let sz = TS.bytes (TS.record pop cfg) in
  Fun.protect ~finally:Rs_experiments.Cache.reset (fun () ->
      with_capacity sz (fun () ->
          Rs_experiments.Cache.reset ();
          List.iter
            (fun key -> ignore (Rs_experiments.Cache.fabricated_trace ~key pop cfg : TS.t))
            [ "A"; "B"; "A" ];
          let s = TS.stats () in
          Alcotest.(check int) "every request recorded" 3 s.misses;
          Alcotest.(check int) "no hits" 0 s.hits;
          Alcotest.(check int) "one trace resident" 1 s.entries))

let test_figure5_replay_byte_identity () =
  let ctx = Rs_experiments.Context.create ~seed:7 ~scale:0.02 ~tau:10 ~jobs:1 () in
  let render () =
    Rs_experiments.Cache.reset ();
    let out = Rs_experiments.Figure5.render (Rs_experiments.Figure5.run ctx) in
    (out, (TS.stats ()).misses)
  in
  let capacity = TS.capacity_bytes () in
  let live, live_recordings =
    Fun.protect
      ~finally:(fun () -> TS.set_capacity_bytes capacity)
      (fun () ->
        TS.set_capacity_bytes 0;
        render ())
  in
  Fun.protect ~finally:Rs_experiments.Cache.reset (fun () ->
      let replayed, recordings = render () in
      Alcotest.(check int) "live arm recorded no trace" 0 live_recordings;
      Alcotest.(check bool) "replayed arm recorded traces" true (recordings > 0);
      Alcotest.(check string) "figure5 via replay == via regeneration" live replayed)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_replay_exact;
    Alcotest.test_case "engine replay equivalence" `Quick test_engine_replay_equivalence;
    Alcotest.test_case "engine rejects mismatched trace" `Quick test_engine_rejects_mismatch;
    Alcotest.test_case "lru bound" `Quick test_lru_bound;
    Alcotest.test_case "capacity zero disables caching" `Quick test_capacity_zero_disables;
    Alcotest.test_case "record names stream guards" `Quick test_record_names_stream_guards;
    Alcotest.test_case "rejects decreasing instr" `Quick test_rejects_decreasing_instr;
    Alcotest.test_case "fabricated traces not pinned" `Quick test_fabricated_not_pinned;
    Alcotest.test_case "figure5 byte-identity" `Slow test_figure5_replay_byte_identity;
  ]
