(* The in-process half of the benchmark (see ../README.md).

   [probe experiments] is the traced run of an experiment workload: it
   executes the selected registry entries one after another in registry
   order on one context, with a span around each entry, then times the
   public functions of the layers underneath (cache, trace store,
   engine, profile, pareto and, when the selection contains MSSP
   entries, the MSSP machine and the distiller).

   [probe serve] is the load generator of the serve workload: one
   client connection to an [rspec serve] process, shipping a recorded
   trace fire-and-forget (phase 1), then alternating one frame with one
   closed-loop QUERY (phase 2).  With [--spans] it records client
   spans and also times the protocol codec and a direct [Shard.apply].

   Both print one JSON object on stdout.  Spans are kept in memory and
   written as JSON lines to the [--spans] file at exit. *)

module E = Rs_experiments
module R = Rs_experiments.Registry
module Benchmark = Rs_workload.Benchmark
module Trace_store = Rs_behavior.Trace_store
module Reactive = Rs_core.Reactive
module Params = Rs_core.Params
module Protocol = Rs_serve.Protocol
module Client = Rs_serve.Client

let now = Unix.gettimeofday

(* ---- spans ------------------------------------------------------------ *)

module Span = struct
  type t = { id : int; name : string; parent : int; start : float; mutable stop : float }

  let enabled = ref false
  let origin = now ()
  let spans = ref []
  let stack = ref []
  let next = ref 0

  let with_ name f =
    if not !enabled then f ()
    else begin
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let s = { id = !next; name; parent; start = now (); stop = nan } in
      incr next;
      spans := s :: !spans;
      stack := s.id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.stop <- now ();
          stack := List.tl !stack)
        f
    end

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
          s.id s.name s.parent (s.start -. origin) (s.stop -. origin))
      (List.rev !spans);
    close_out oc
end

(* ---- output ----------------------------------------------------------- *)

let fields : (string * string) list ref = ref []
let put_raw k v = fields := (k, v) :: !fields
let put k (v : float) = put_raw k (Printf.sprintf "%.9g" v)
let put_int k v = put_raw k (string_of_int v)

let put_floats k vs =
  put_raw k ("[" ^ String.concat "," (List.map (Printf.sprintf "%.9g") vs) ^ "]")

let print_fields () =
  print_string "{";
  List.iteri
    (fun i (k, v) -> Printf.printf "%s%S:%s" (if i = 0 then "" else ",") k v)
    (List.rev !fields);
  print_string "}\n"

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median seconds of [reps] timed calls of [f], each under span [name]. *)
let probe ?(reps = 3) name f =
  median (List.init reps (fun _ -> snd (timed (fun () -> Span.with_ name f))))

(* Seconds per call of [f] over [n] calls in one span, for calls too
   short for the clock. *)
let probe_each n name f =
  snd
    (timed (fun () ->
         Span.with_ name (fun () ->
             for _ = 1 to n do
               f ()
             done)))
  /. float_of_int n

let cpu_s () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* ---- experiment workloads -------------------------------------------- *)

let metric name =
  match List.assoc_opt name (Rs_obs.Metrics.snapshot ()) with
  | Some (Rs_obs.Metrics.Counter_value v) | Some (Rs_obs.Metrics.Gauge_value v) -> v
  | _ -> 0

let layer_probes ctx ~bench =
  let b = Benchmark.find bench in
  let seed = ctx.E.Context.seed and scale = ctx.E.Context.scale in
  let pop, cfg = Benchmark.build b ~input:Benchmark.Ref ~seed ~scale ~tau:ctx.E.Context.tau in
  let params = E.Context.params ctx in
  let trace = Trace_store.record pop cfg in
  let n = float_of_int (Trace_store.length trace) in
  let per_event s = s *. 1e9 /. n in
  put "trace_store.record_ns_per_event"
    (per_event (probe "Trace_store.record" (fun () -> ignore (Trace_store.record pop cfg))));
  put "trace_store.replay_ns_per_event"
    (per_event (probe "Trace_store.replay" (fun () -> Trace_store.replay trace ignore)));
  put "engine.ns_per_event"
    (per_event
       (probe "Engine.run" (fun () -> ignore (Rs_sim.Engine.run ~trace pop cfg params))));
  let prof = Rs_sim.Profile.collect ~trace pop cfg in
  put "profile.ns_per_event"
    (per_event
       (probe "Profile.collect" (fun () -> ignore (Rs_sim.Profile.collect ~trace pop cfg))));
  put "pareto.curve_ms"
    (1e3 *. probe_each 100 "Pareto.curve" (fun () -> ignore (Rs_sim.Pareto.curve prof)));
  (* one Cache.run miss on an empty cache (build, record, run), then the hit *)
  E.Cache.reset ();
  let cold = probe ~reps:1 "Cache.run" (fun () -> ignore (E.Cache.run ctx b ~input:Ref params)) in
  let warm =
    probe_each 10_000 "Cache.run" (fun () -> ignore (E.Cache.run ctx b ~input:Ref params))
  in
  put "cache.run_cold_ms" (cold *. 1e3);
  put "cache.run_warm_us" (warm *. 1e6)

(* The parameter sets of the figure7 grid. *)
let figure7_params ~monitor ~closed =
  {
    Params.default with
    monitor_period = monitor;
    wait_period = 50_000;
    optimization_latency = 0;
    enable_eviction = closed;
  }

let mssp_probe ctx =
  let module W = Rs_mssp.Workload in
  let module M = Rs_mssp.Machine in
  let seed = ctx.E.Context.seed in
  let grid = [ (1_000, true); (1_000, false); (10_000, true); (10_000, false) ] in
  let per_spec =
    Rs_util.Pool.map_ordered (E.Context.pool ctx)
      (fun (spec : W.t) ->
        let inst, inst_s = timed (fun () -> W.instantiate spec ~seed) in
        ( inst_s,
          List.map
            (fun (monitor, closed) ->
              (* minor words are counted by the domain running this task *)
              let w0 = Gc.minor_words () in
              let st, run_s =
                timed (fun () -> M.run inst ~seed ~params:(figure7_params ~monitor ~closed))
              in
              (run_s, Gc.minor_words () -. w0, st))
            grid ))
      (Array.of_list W.all)
  in
  let runs = List.concat_map snd (Array.to_list per_spec) in
  let fsum f = List.fold_left (fun a r -> a +. f r) 0.0 runs in
  let isum f = List.fold_left (fun a r -> a + f r) 0 runs in
  let tasks = float_of_int (isum (fun (_, _, st) -> st.M.tasks)) in
  put "mssp.instantiate_s" (Array.fold_left (fun a (s, _) -> a +. s) 0.0 per_spec);
  put "mssp.ns_per_task" (fsum (fun (s, _, _) -> s) *. 1e9 /. tasks);
  put "mssp.minor_words_per_task" (fsum (fun (_, w, _) -> w) /. tasks);
  put_int "mssp.squashes" (isum (fun (_, _, st) -> st.M.squashes));
  put_int "mssp.recompilations" (isum (fun (_, _, st) -> st.M.recompilations))

(* figure1's two programs and every MSSP region, each distilled under
   each single-site assumption in both directions and under all sites
   taken — the assumption sets the controller's flips re-distill. *)
let distill_probe ctx =
  let module Synth = Rs_ir.Synth in
  let module A = Rs_distill.Assumptions in
  let module W = Rs_mssp.Workload in
  let seed = ctx.E.Context.seed in
  let fig1, fig1_branches = Synth.figure1 () in
  let program =
    Synth.program
      ~rng:(Rs_util.Prng.create ((seed * 8191) + 3))
      ~helper_sites:2 ~loop_trips:3 ~first_site:0 ()
  in
  let jobs =
    ref
      [
        (fig1, { A.branches = fig1_branches; loads = [ (2, 0, 32) ] });
        (program.Synth.prog, A.branches [ (0, true); (1, true); (4, true) ]);
      ]
  in
  List.iter
    (fun (spec : W.t) ->
      let rng = Rs_util.Prng.create ((seed * 69_069) + Hashtbl.hash spec.name) in
      for r = 0 to spec.n_regions - 1 do
        let region =
          Synth.generate ~rng ~n_sites:spec.sites_per_region
            ~first_site:(r * spec.sites_per_region) ()
        in
        let sites = Array.to_list region.Synth.site_ids in
        jobs := (region.prog, A.branches (List.map (fun s -> (s, true)) sites)) :: !jobs;
        List.iter
          (fun s ->
            jobs := (region.prog, A.branches [ (s, true) ]) :: !jobs;
            jobs := (region.prog, A.branches [ (s, false) ]) :: !jobs)
          sites
      done)
    W.all;
  let calls = List.length !jobs in
  let total =
    probe ~reps:1 "Distill.distill" (fun () ->
        List.iter (fun (p, a) -> ignore (Rs_distill.Distill.distill p a)) !jobs)
  in
  put "distill.us_per_call" (total *. 1e6 /. float_of_int calls)

let experiments ~entries ~seed ~scale ~jobs ~bench =
  let ctx = E.Context.create ~seed ~scale ~jobs () in
  let selected =
    match R.select entries with
    | Ok l -> l
    | Error msg ->
      prerr_endline ("probe: " ^ msg);
      exit 2
  in
  let out = Buffer.create (1 lsl 16) in
  let failed = ref 0 in
  let cpu0 = cpu_s () in
  let (), wall =
    timed (fun () ->
        Span.with_ "workload" (fun () ->
            List.iter
              (fun e ->
                let name = R.name e in
                let (), s =
                  timed (fun () ->
                      Span.with_ ("Registry." ^ name) (fun () ->
                          match R.execute ctx e with
                          | o ->
                            Printf.bprintf out "== %s  [%s] ==\n%s\n" name
                              (E.Context.describe ctx) o.R.text
                          | exception exn ->
                            incr failed;
                            Printf.eprintf "probe: %s failed: %s\n%!" name
                              (Printexc.to_string exn)))
                in
                put ("registry." ^ name ^ "_s") s)
              selected))
  in
  let cpu = cpu_s () -. cpu0 in
  put "wall_s" wall;
  put_raw "digest" (Printf.sprintf "%S" (Digest.to_hex (Digest.string (Buffer.contents out))));
  put_int "attempted" (List.length selected);
  put_int "failed" !failed;
  let c = E.Cache.stats () in
  put_int "cache.build_hits" c.build_hits;
  put_int "cache.build_misses" c.build_misses;
  put_int "cache.profile_hits" c.profile_hits;
  put_int "cache.profile_misses" c.profile_misses;
  put_int "cache.run_hits" c.run_hits;
  put_int "cache.run_misses" c.run_misses;
  put "cache.hit_rate" (E.Cache.hit_rate c);
  List.iter
    (fun k -> put_int k (metric k))
    [
      "trace_store.bytes";
      "trace_store.entries";
      "trace_store.hits";
      "trace_store.misses";
      "trace_store.evictions";
      "engine.runs";
      "engine.events";
    ];
  let p = Rs_util.Pool.stats () in
  put_int "pool.tasks" p.tasks;
  put_int "pool.steals" p.steals;
  put_int "pool.splits" p.splits;
  put_int "pool.spec_started" p.spec_started;
  put_int "pool.spec_cancelled" p.spec_cancelled;
  put "pool.busy_frac" (cpu /. (wall *. float_of_int jobs));
  Span.with_ "probes" (fun () ->
      layer_probes ctx ~bench;
      let mssp = [ "figure7"; "figure8"; "correlation"; "claims" ] in
      if List.exists (fun e -> List.mem (R.name e) mssp) selected then begin
        Span.with_ "Machine.run" (fun () -> mssp_probe ctx);
        distill_probe ctx
      end)

(* ---- serve workload --------------------------------------------------- *)

(* FNV-1a over per-branch decision codes, as [rspec drive] prints it. *)
let fnv_fold h code = (h lxor code) * 0x01000193 land 0xffffffff

let json_number json key =
  let pat = "\"" ^ key ^ "\":" in
  let n = String.length json and m = String.length pat in
  let rec find i =
    if i + m > n then failwith ("probe: STATS has no " ^ key)
    else if String.sub json i m = pat then i + m
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < n && String.contains "-+.0123456789eE" json.[!stop] do
    incr stop
  done;
  float_of_string (String.sub json start (!stop - start))

let rec connect socket tries =
  match Client.connect socket with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
    Unix.sleepf 0.01;
    connect socket (tries - 1)

let full_chunks trace =
  let acc = ref [] in
  Trace_store.iter_packed trace (fun chunk len ->
      if len = Protocol.max_frame_words then acc := Array.copy chunk :: !acc);
  Array.of_list (List.rev !acc)

(* Feed every shipped word through one Reactive table, the way a
   single shard applies them, and digest the final decisions. *)
let reference_digest ~params ~n_branches shipped =
  let ctrl = Reactive.create ~n_branches params in
  let instr = ref 0 in
  List.iter
    (fun (words, times) ->
      for _ = 1 to times do
        Array.iter
          (fun w ->
            instr := !instr + Trace_store.packed_delta w;
            Reactive.observe ctrl ~branch:(Trace_store.packed_branch w)
              ~taken:(w land 1 = 1) ~instr:!instr)
          words
      done)
    shipped;
  let h = ref 0x811c9dc5 in
  for b = 0 to n_branches - 1 do
    h := fnv_fold !h (Reactive.deployed_code ctrl b)
  done;
  !h

let codec_and_shard_probes ~params ~n_branches words_of_trace chunks =
  let events = float_of_int (Array.length chunks * Protocol.max_frame_words) in
  let frames = ref [||] in
  let enc =
    probe "Protocol.encode_request" (fun () ->
        frames := Array.map (fun c -> Protocol.encode_request (Events c)) chunks)
  in
  put "protocol.encode_ns_per_event" (enc *. 1e9 /. events);
  let dec =
    probe "Protocol.next_request" (fun () ->
        let d = Protocol.decoder () in
        Array.iter
          (fun f ->
            let n = Bytes.length f in
            let off = ref 0 in
            while !off < n do
              let len = min 65536 (n - !off) in
              Protocol.feed d f !off len;
              off := !off + len;
              let rec drain () =
                match Protocol.next_request d with Some _ -> drain () | None -> ()
              in
              drain ()
            done)
          !frames)
  in
  put "protocol.decode_ns_per_event" (dec *. 1e9 /. events);
  (* Shard.apply on the demultiplexed form the I/O loop hands a
     single shard: local branch = branch, absolute instruction counts. *)
  let shard = Rs_serve.Shard.create ~params ~n_branches ~shards:1 ~index:0 in
  let reps = 3 in
  let n = Array.length words_of_trace in
  let ev = Array.make (reps * n) 0 and ins = Array.make (reps * n) 0 in
  let instr = ref 0 in
  for r = 0 to reps - 1 do
    Array.iteri
      (fun i w ->
        instr := !instr + Trace_store.packed_delta w;
        ev.((r * n) + i) <- (Trace_store.packed_branch w * 2) lor (w land 1);
        ins.((r * n) + i) <- !instr)
      words_of_trace
  done;
  let batch = Protocol.max_frame_words in
  let (), s =
    timed (fun () ->
        Span.with_ "Shard.apply" (fun () ->
            let off = ref 0 in
            while !off < reps * n do
              let len = min batch ((reps * n) - !off) in
              Rs_serve.Shard.apply shard ~ev:(Array.sub ev !off len)
                ~instr:(Array.sub ins !off len) ~len;
              off := !off + len
            done))
  in
  put "shard.apply_ns_per_event" (s *. 1e9 /. float_of_int (reps * n))

let serve ~bench ~socket ~seed ~scale ~repeat ~pairs ~query_seed ~corrupt =
  let b = Benchmark.find bench in
  let tau = Benchmark.default_tau in
  let params = Params.compress ~factor:tau Params.default in
  (* set-up: record the trace the client ships, three times *)
  let recs =
    Span.with_ "setup" @@ fun () ->
    List.init 3 (fun _ ->
        timed (fun () ->
            Span.with_ "Trace_store.record" (fun () ->
                let pop, cfg = Benchmark.build b ~input:Ref ~seed ~scale ~tau in
                (Trace_store.record pop cfg, Rs_behavior.Population.size pop))))
  in
  put_floats "record_s" (List.map snd recs);
  let trace, n_branches = fst (List.hd recs) in
  let words =
    let acc = ref [] in
    Trace_store.iter_packed trace (fun chunk len -> acc := Array.sub chunk 0 len :: !acc);
    Array.concat (List.rev !acc)
  in
  let chunks = full_chunks trace in
  let len = Trace_store.length trace in
  let c = connect socket 1000 in
  (* warm-up, untimed: one pass of the trace *)
  Client.send_trace c trace;
  ignore (Client.flush c);
  let stats0 = Client.stats c in
  let send_s = ref 0.0 in
  let rng = Rs_util.Prng.create query_seed in
  let lat = Array.make pairs 0.0 in
  let query_errors = ref 0 in
  let phase1 = ref 0.0 and flush_wait = ref 0.0 and phase2 = ref 0.0 in
  let stats1 =
    Span.with_ "workload" (fun () ->
        (* phase 1: fire-and-forget EVENTS frames, then the FLUSH barrier,
           timed from the first send to the ack *)
        let t0 = now () in
        for _ = 1 to repeat do
          let (), s =
            timed (fun () -> Span.with_ "Client.send_trace" (fun () -> Client.send_trace c trace))
          in
          send_s := !send_s +. s
        done;
        let t_last = now () in
        ignore (Span.with_ "Client.flush" (fun () -> Client.flush c));
        let t1 = now () in
        phase1 := t1 -. t0;
        flush_wait := t1 -. t_last;
        let stats1 = Client.stats c in
        (* phase 2: one frame, then one closed-loop QUERY *)
        let (), s =
          timed (fun () ->
              for i = 0 to pairs - 1 do
                Span.with_ "Client.send_events" (fun () ->
                    Client.send_events c chunks.(i mod Array.length chunks));
                let branch = Rs_util.Prng.int rng n_branches in
                let r, s =
                  timed (fun () -> Span.with_ "Client.query" (fun () -> Client.query c branch))
                in
                lat.(i) <- s *. 1e6;
                match r with Ok _ -> () | Error _ -> incr query_errors
              done;
              ignore (Span.with_ "Client.flush" (fun () -> Client.flush c)))
        in
        phase2 := s;
        stats1)
  in
  let stats = Client.stats c in
  let h = ref 0x811c9dc5 in
  for branch = 0 to n_branches - 1 do
    match Client.query c branch with
    | Ok code -> h := fnv_fold !h code
    | Error _ -> incr query_errors
  done;
  ignore (Client.shutdown c);
  Client.close c;
  let phase2_words = Array.init pairs (fun i -> chunks.(i mod Array.length chunks)) in
  let shipped =
    (words, 1 + repeat) :: Array.to_list (Array.map (fun w -> (w, 1)) phase2_words)
  in
  let expect_events = ((1 + repeat) * len) + (pairs * Protocol.max_frame_words) in
  let reference = reference_digest ~params ~n_branches shipped in
  (* --corrupt: wrong expectations, so that every check below must fail *)
  let reference, expect_events =
    if corrupt then (reference lxor 1, expect_events + 1) else (reference, expect_events)
  in
  let num k = int_of_float (json_number stats k) in
  let checks =
    [
      ("digest", !h = reference);
      ("events", num "events" = expect_events);
      ("applied", num "applied" = expect_events);
      ("protocol_errors", num "protocol_errors" = 0);
    ]
  in
  List.iter (fun (k, ok) -> if not ok then Printf.eprintf "probe: serve check %s failed\n%!" k) checks;
  let frames = num "frames" in
  put_int "attempted" (frames + num "queries");
  put_int "failed"
    (num "protocol_errors" + !query_errors
    + List.length (List.filter (fun (k, ok) -> k <> "protocol_errors" && not ok) checks));
  put_raw "digest" (Printf.sprintf "\"0x%08x\"" !h);
  put_raw "reference_digest" (Printf.sprintf "\"0x%08x\"" reference);
  put_int "events" (repeat * len);
  put "phase1_s" !phase1;
  put "phase2_s" !phase2;
  put "client.send_s" !send_s;
  put "client.flush_wait_ms" (!flush_wait *. 1e3);
  put_floats "query_us" (Array.to_list lat);
  put "server.aggregate_rate_eps" (json_number stats "aggregate_rate_eps");
  put "shard.busy_frac"
    ((json_number stats1 "busy_s" -. json_number stats0 "busy_s") /. !phase1);
  if !Span.enabled then
    Span.with_ "probes" (fun () -> codec_and_shard_probes ~params ~n_branches words chunks)

(* ---- command line ----------------------------------------------------- *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let entries = ref "" and seed = ref 42 and scale = ref 0.02 and jobs = ref 2 in
  let socket = ref "" and repeat = ref 1 and pairs = ref 1 in
  let query_seed = ref 1 and corrupt = ref false in
  let spans = ref "" and bench = ref "" in
  let specs =
    [
      ("--entries", Arg.Set_string entries, "comma-separated registry entries");
      ("--seed", Arg.Set_int seed, "experiment or trace seed");
      ("--scale", Arg.Set_float scale, "population scale");
      ("--jobs", Arg.Set_int jobs, "worker domains");
      ("--bench", Arg.Set_string bench, "benchmark the layer probes use, or serve ships");
      ("--socket", Arg.Set_string socket, "server socket path");
      ("--repeat", Arg.Set_int repeat, "phase-1 passes over the trace");
      ("--pairs", Arg.Set_int pairs, "phase-2 frame+query pairs");
      ("--query-seed", Arg.Set_int query_seed, "seed of the phase-2 branch choice");
      ("--corrupt", Arg.Set corrupt, "check against wrong expectations (serve)");
      ("--spans", Arg.Set_string spans, "record spans and write them to this file");
    ]
  in
  let usage = "probe (experiments|serve) [options]" in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad a)) usage;
  Span.enabled := !spans <> "";
  (match mode with
  | "experiments" ->
    experiments
      ~entries:(String.split_on_char ',' !entries)
      ~seed:!seed ~scale:!scale ~jobs:!jobs ~bench:!bench
  | "serve" ->
    serve ~bench:!bench ~socket:!socket ~seed:!seed ~scale:!scale ~repeat:!repeat ~pairs:!pairs
      ~query_seed:!query_seed ~corrupt:!corrupt
  | _ ->
    prerr_endline usage;
    exit 2);
  if !Span.enabled then begin
    Span.write !spans;
    put_int "trace.spans" !Span.next
  end;
  print_fields ()
