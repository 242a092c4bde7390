(* rspec: reproduce the tables and figures of "Reactive Techniques for
   Controlling Software Speculation" (CGO 2005).

   Every subcommand is a generic view over [Rs_experiments.Registry]:
   [list] prints it, [run]/[all] execute selections of it, [export] is a
   legacy alias for the figure CSV sheets.  Adding an experiment to the
   registry adds it everywhere here with no change to this file. *)

open Cmdliner
module E = Rs_experiments
module R = Rs_experiments.Registry
module Fsutil = Rs_util.Fsutil

let ctx_term =
  let scale =
    let doc =
      "Population scale in (0,1]: shrinks the static branch populations and run lengths \
       proportionally.  Scaled counts compare to the paper's after dividing by SCALE."
    in
    Arg.(value & opt float E.Context.default.scale & info [ "scale" ] ~docv:"SCALE" ~doc)
  in
  let seed =
    let doc = "Root random seed; every experiment is deterministic in it." in
    Arg.(value & opt int E.Context.default.seed & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let tau =
    let doc =
      "Time-compression factor: divides the controller wait period, the optimization \
       latency and the workloads' slow change periods.  1 = paper-exact time (slow)."
    in
    Arg.(value & opt int E.Context.default.tau & info [ "tau" ] ~docv:"TAU" ~doc)
  in
  let jobs =
    let doc =
      "Worker domains for the experiment runner (also $(b,RS_JOBS); default: the \
       recommended domain count).  Results are independent of JOBS; 1 runs fully \
       sequentially."
    in
    Arg.(value & opt int E.Context.default.jobs & info [ "jobs"; "j" ] ~docv:"JOBS" ~doc)
  in
  let cache_stats =
    let doc = "Print artifact-cache hit/miss counters to stderr after the run." in
    Arg.(value & flag & info [ "cache-stats" ] ~doc)
  in
  let pool_stats =
    let doc =
      "Print work-stealing scheduler counters (tasks, steals, splits) to stderr after the \
       run."
    in
    Arg.(value & flag & info [ "pool-stats" ] ~doc)
  in
  let metrics =
    let doc =
      "Print the metrics-registry summary (controller transition counts per state arc, \
       engine event totals, cache hits/misses, pool activity) to stderr after the run."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let trace =
    let doc =
      "Write structured JSONL trace events (controller transitions, engine-run summaries, \
       pool task start/stop, cache and build activity) to $(docv); see README \
       'Observability' for the event schema."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let faults =
    let doc =
      "Enable deterministic fault injection from $(docv) (also $(b,RS_FAULTS)), e.g. \
       'seed=7,rate=0.4,max_raises=2,sites=cache'.  Faults raise or delay at named sites in \
       the cache, pool, trace and trace-store layers on a replayable schedule; see README \
       'Fault injection & failure semantics'."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  let trace_cache_mb =
    let doc =
      "Capacity of the in-memory branch-event trace store in megabytes (also \
       $(b,RS_TRACE_CACHE_MB)).  Streams are recorded once and replayed from this LRU by \
       every sweep; 0 disables recording entirely (streams regenerate live; results are \
       identical either way).  See README 'Trace record/replay'."
    in
    Arg.(value & opt (some int) None & info [ "trace-cache-mb" ] ~docv:"MB" ~doc)
  in
  let make scale seed tau jobs cache_stats pool_stats metrics trace faults trace_cache_mb =
    let configured =
      match faults with
      | Some spec -> Rs_fault.Fault.configure_spec spec
      | None -> Rs_fault.Fault.configure_from_env ()
    in
    (match configured with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "rspec: %s\n" msg;
      exit 2);
    if cache_stats then
      at_exit (fun () -> prerr_endline (E.Cache.describe (E.Cache.stats ())));
    if pool_stats then
      at_exit (fun () -> prerr_endline (Rs_util.Pool.describe (Rs_util.Pool.stats ())));
    if metrics then
      at_exit (fun () -> prerr_string (Rs_obs.Metrics.render_summary ()));
    (match trace with
    | Some file -> (
      (* Trace.to_file registers its own at_exit flush, so even a run
         that dies abnormally keeps the tail of its trace. *)
      try Rs_obs.Trace.to_file file
      with Rs_obs.Trace.Error msg ->
        Printf.eprintf "rspec: %s\n" msg;
        exit 2)
    | None -> ());
    (match trace_cache_mb with
    | Some mb ->
      if mb < 0 then begin
        Printf.eprintf "rspec: --trace-cache-mb must be >= 0\n";
        exit 2
      end;
      Rs_behavior.Trace_store.set_capacity_bytes (mb * 1024 * 1024)
    | None -> ());
    E.Context.create ~seed ~scale ~tau ~jobs ()
  in
  Term.(
    const make $ scale $ seed $ tau $ jobs $ cache_stats $ pool_stats $ metrics $ trace
    $ faults $ trace_cache_mb)

let print_header ctx name = Printf.printf "== %s  [%s] ==\n%!" name (E.Context.describe ctx)

let write_file dir filename contents =
  Fsutil.ensure_dir dir;
  let path = Filename.concat dir filename in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* Run a selection and report failures the way [all] always has: a
   failing experiment is isolated, reported on stderr, and turns the exit
   status non-zero after everything else ran. *)
let execute_selection ctx entries =
  let results = R.execute_all ctx entries in
  let failed =
    List.filter_map
      (fun (e, r) ->
        match r with
        | Ok _ -> None
        | Error exn ->
          Printf.eprintf "rspec: %s failed: %s\n%!" (R.name e) (Printexc.to_string exn);
          Some (R.name e))
      results
  in
  (results, failed)

let exit_on_failures entries failed =
  match failed with
  | [] -> ()
  | names ->
    Printf.eprintf "rspec: %d/%d experiments failed: %s\n%!" (List.length names)
      (List.length entries)
      (String.concat ", " names);
    exit 1

let print_texts ctx results =
  List.iter
    (fun (e, r) ->
      print_header ctx (R.name e);
      match r with
      | Ok (out : R.output) ->
        print_string out.text;
        print_newline ()
      | Error _ -> ())
    results

type format = Text | Csv | Json

let emit ctx ~format ~out results =
  match format with
  | Text -> (
    match out with
    | None -> print_texts ctx results
    | Some dir ->
      List.iter
        (fun (e, r) ->
          match r with
          | Ok (o : R.output) -> write_file dir (R.name e ^ ".txt") o.text
          | Error _ -> ())
        results)
  | Csv ->
    let dir = Option.value out ~default:"figures" in
    List.iter
      (fun (_, r) ->
        match r with
        | Ok o -> List.iter (fun (file, contents) -> write_file dir file contents) (R.csv_files o)
        | Error _ -> ())
      results
  | Json -> (
    let outputs = List.filter_map (fun (_, r) -> Result.to_option r) results in
    match out with
    | None -> print_string (R.json_document ctx outputs)
    | Some dir ->
      List.iter
        (fun (o : R.output) ->
          write_file dir (R.name o.entry ^ ".json") (R.json_of_output o ^ "\n"))
        outputs)

let format_conv = Arg.enum [ ("text", Text); ("csv", Csv); ("json", Json) ]

let run_cmd =
  let names =
    let doc =
      "Experiment names or glob patterns ($(b,*) and $(b,?)), e.g. $(b,figure2) or \
       $(b,'table*'); see $(b,rspec list).  No names selects every experiment."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"NAME" ~doc)
  in
  let format =
    let doc =
      "Output format: $(b,text) (the rendered reproduction), $(b,csv) (one file per sheet \
       of the experiment's row schema), or $(b,json) (one document with the schema, rows \
       and run context)."
    in
    Arg.(value & opt format_conv Text & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let out =
    let doc =
      "Write to files under $(docv) instead of stdout (csv defaults to $(b,figures))."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let run ctx names format out =
    match R.select names with
    | Error msg ->
      Printf.eprintf "rspec: %s\n" msg;
      exit 2
    | Ok entries ->
      let results, failed = execute_selection ctx entries in
      emit ctx ~format ~out results;
      exit_on_failures entries failed
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run a selection of experiments (by name or glob) and emit text, CSV or JSON.  A \
          failing experiment is isolated and reported on stderr; the rest still run and the \
          exit status is non-zero.")
    Term.(const run $ ctx_term $ names $ format $ out)

let all_cmd =
  let run ctx =
    let results, failed = execute_selection ctx R.all in
    print_texts ctx results;
    exit_on_failures R.all failed
  in
  Cmd.v
    (Cmd.info "all"
       ~doc:
         "Run every table and figure reproduction in paper order.  A failing experiment is \
          isolated and reported on stderr; the rest still run and the exit status is \
          non-zero.")
    Term.(const run $ ctx_term)

let export_cmd =
  let dir =
    Arg.(
      value
      & opt string "figures"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Directory to write the CSV series into.")
  in
  let run ctx dir =
    let entries =
      List.filter_map R.find [ "figure2"; "figure5"; "figure6"; "figure7"; "figure8" ]
    in
    let results, failed = execute_selection ctx entries in
    emit ctx ~format:Csv ~out:(Some dir) results;
    exit_on_failures entries failed
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Write the raw series behind the figures as CSV files (alias for $(b,run \
          'figure[25678]' --format csv))")
    Term.(const run $ ctx_term $ dir)

let list_cmd =
  let run () =
    List.iter (fun e -> Printf.printf "%-9s %s\n" (R.name e) (R.description e)) R.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available reproductions") Term.(const run $ const ())

(* --- the online service (`rspec serve` / `rspec drive`) ------------- *)

module Benchmark = Rs_workload.Benchmark

let fail_cli fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "rspec: %s\n" msg;
      exit 2)
    fmt

let find_bench name =
  match Benchmark.find name with
  | b -> b
  | exception Not_found ->
    fail_cli "unknown benchmark %s (expected one of %s)" name
      (String.concat ", " Benchmark.names)

let input_conv = Arg.enum [ ("ref", Benchmark.Ref); ("train", Benchmark.Train) ]
let input_name = function Benchmark.Ref -> "ref" | Benchmark.Train -> "train"

let serve_args =
  let socket =
    let doc = "Listen on a Unix-domain socket at $(docv)." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let stdio =
    let doc = "Serve a single length-prefixed connection on stdin/stdout instead of a socket." in
    Arg.(value & flag & info [ "stdio" ] ~doc)
  in
  let branches =
    let doc = "Serve a branch id space of $(docv) branches (alternative to $(b,--bench))." in
    Arg.(value & opt (some int) None & info [ "branches" ] ~docv:"N" ~doc)
  in
  let bench =
    let doc =
      "Size the branch id space from this benchmark's population (see $(b,rspec list) and \
       $(b,rspec drive))."
    in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"NAME" ~doc)
  in
  let input = Arg.(value & opt input_conv Benchmark.Ref & info [ "input" ] ~docv:"INPUT") in
  let scale = Arg.(value & opt float E.Context.default.scale & info [ "scale" ] ~docv:"SCALE") in
  let seed = Arg.(value & opt int E.Context.default.seed & info [ "seed" ] ~docv:"SEED") in
  let tau =
    let doc = "Time-compression factor for the controller parameters." in
    Arg.(value & opt int Benchmark.default_tau & info [ "tau" ] ~docv:"TAU" ~doc)
  in
  let shards =
    let doc = "Worker shards: branch $(i,b) is owned by shard $(i,b) mod $(docv)." in
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let snapshot =
    let doc =
      "Snapshot file: restored from at startup when present (same branch and shard counts \
       required), rewritten atomically on every SNAPSHOT request."
    in
    Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc = "Print the metrics-registry summary to stderr on exit." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let faults =
    let doc =
      "Deterministic fault injection spec (also $(b,RS_FAULTS)); the service consults \
       $(b,serve.accept), $(b,serve.read) and $(b,serve.shard)."
    in
    Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)
  in
  (socket, stdio, branches, bench, input, scale, seed, tau, shards, snapshot, metrics, faults)

let serve_cmd =
  let socket, stdio, branches, bench, input, scale, seed, tau, shards, snapshot, metrics, faults =
    serve_args
  in
  let run socket stdio branches bench input scale seed tau shards snapshot metrics faults =
    (match
       match faults with
       | Some spec -> Rs_fault.Fault.configure_spec spec
       | None -> Rs_fault.Fault.configure_from_env ()
     with
    | Ok () -> ()
    | Error msg -> fail_cli "%s" msg);
    if metrics then at_exit (fun () -> prerr_string (Rs_obs.Metrics.render_summary ()));
    let transport =
      match (socket, stdio) with
      | Some path, false -> Rs_serve.Server.Unix_socket path
      | None, true -> Rs_serve.Server.Stdio
      | None, false -> fail_cli "serve needs --socket PATH or --stdio"
      | Some _, true -> fail_cli "--socket and --stdio are mutually exclusive"
    in
    let n_branches =
      match (branches, bench) with
      | Some n, None -> n
      | None, Some name ->
        let pop, _ = Benchmark.build (find_bench name) ~input ~seed ~scale ~tau in
        Rs_behavior.Population.size pop
      | None, None -> fail_cli "serve needs --branches N or --bench NAME"
      | Some _, Some _ -> fail_cli "--branches and --bench are mutually exclusive"
    in
    if n_branches <= 0 then fail_cli "--branches must be positive";
    if shards <= 0 then fail_cli "--shards must be positive";
    let params = Rs_core.Params.compress ~factor:tau Rs_core.Params.default in
    Rs_serve.Server.run { params; n_branches; shards; transport; snapshot_path = snapshot }
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the online speculation-control service: a long-lived process ingesting packed \
          branch-event frames over a Unix-domain socket (or stdio), sharding controller \
          state across worker domains, answering QUERY/STATS/SNAPSHOT requests.  See README \
          'Online service'.")
    Term.(
      const run $ socket $ stdio $ branches $ bench $ input $ scale $ seed $ tau $ shards
      $ snapshot $ metrics $ faults)

let rec connect_retry path tries =
  match Rs_serve.Client.connect path with
  | c -> c
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
    Unix.sleepf 0.1;
    connect_retry path (tries - 1)

(* FNV-1a over the per-branch decision codes: a stable one-line digest
   of the server's whole deployed state, diffable across shard counts
   and snapshot/restore. *)
let fnv_fold h code = (h lxor code) * 0x01000193 land 0xffffffff

let drive_cmd =
  let socket =
    let doc = "Server socket path." in
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let bench =
    let doc = "Benchmark whose recorded event stream to ship." in
    Arg.(required & opt (some string) None & info [ "bench" ] ~docv:"NAME" ~doc)
  in
  let input = Arg.(value & opt input_conv Benchmark.Ref & info [ "input" ] ~docv:"INPUT") in
  let scale = Arg.(value & opt float E.Context.default.scale & info [ "scale" ] ~docv:"SCALE") in
  let seed = Arg.(value & opt int E.Context.default.seed & info [ "seed" ] ~docv:"SEED") in
  let tau = Arg.(value & opt int Benchmark.default_tau & info [ "tau" ] ~docv:"TAU") in
  let repeat =
    let doc = "Ship the trace $(docv) times (one continuous logical stream)." in
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)
  in
  let stats_json =
    let doc = "Write the server's STATS JSON document to $(docv) after flushing." in
    Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)
  in
  let snapshot_out =
    let doc = "Request a SNAPSHOT after flushing and write its bytes to $(docv)." in
    Arg.(value & opt (some string) None & info [ "snapshot-out" ] ~docv:"FILE" ~doc)
  in
  let shutdown =
    let doc = "Send SHUTDOWN when done." in
    Arg.(value & flag & info [ "shutdown" ] ~doc)
  in
  let run socket bench input scale seed tau repeat stats_json snapshot_out shutdown =
    if repeat <= 0 then fail_cli "--repeat must be positive";
    let b = find_bench bench in
    let pop, stream_cfg = Benchmark.build b ~input ~seed ~scale ~tau in
    let trace = Rs_behavior.Trace_store.record pop stream_cfg in
    let n_branches = Rs_behavior.Population.size pop in
    let c = connect_retry socket 100 in
    for _ = 1 to repeat do
      Rs_serve.Client.send_trace c trace
    done;
    let flushed = Rs_serve.Client.flush c in
    let counts = Array.make 4 0 in
    let hash = ref 0x811c9dc5 in
    for branch = 0 to n_branches - 1 do
      match Rs_serve.Client.query c branch with
      | Ok code ->
        counts.(code) <- counts.(code) + 1;
        hash := fnv_fold !hash code
      | Error msg -> fail_cli "query %d: %s" branch msg
    done;
    Printf.printf "drive: bench=%s input=%s branches=%d events=%d repeat=%d flushed=%d\n" bench
      (input_name input) n_branches
      (Rs_behavior.Trace_store.length trace * repeat)
      repeat flushed;
    Printf.printf "decisions: code0=%d code1=%d code2=%d code3=%d hash=0x%08x\n" counts.(0)
      counts.(1) counts.(2) counts.(3) !hash;
    (match stats_json with
    | Some file ->
      let oc = open_out file in
      output_string oc (Rs_serve.Client.stats c);
      output_char oc '\n';
      close_out oc
    | None -> ());
    (match snapshot_out with
    | Some file ->
      let oc = open_out_bin file in
      output_string oc (Rs_serve.Client.snapshot c);
      close_out oc
    | None -> ());
    if shutdown then ignore (Rs_serve.Client.shutdown c);
    Rs_serve.Client.close c
  in
  Cmd.v
    (Cmd.info "drive"
       ~doc:
         "Drive a running $(b,rspec serve): record a benchmark's event stream, ship it (in \
          32k-word packed frames), flush, and print a deterministic digest of the server's \
          deployed decisions — byte-identical across shard counts and snapshot/restore.")
    Term.(
      const run $ socket $ bench $ input $ scale $ seed $ tau $ repeat $ stats_json
      $ snapshot_out $ shutdown)

(* One subcommand per registry entry, so `rspec figure2` keeps working. *)
let cmd_of entry =
  let action ctx =
    print_header ctx (R.name entry);
    let out = R.execute ctx entry in
    print_string out.text;
    print_newline ()
  in
  Cmd.v (Cmd.info (R.name entry) ~doc:(R.description entry)) Term.(const action $ ctx_term)

let main =
  let doc = "reproduce 'Reactive Techniques for Controlling Software Speculation' (CGO 2005)" in
  let info = Cmd.info "rspec" ~version:"1.0.0" ~doc in
  Cmd.group info
    (list_cmd :: all_cmd :: run_cmd :: export_cmd :: serve_cmd :: drive_cmd
    :: List.map cmd_of R.all)

let () = exit (Cmd.eval main)
