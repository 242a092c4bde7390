module BM = Rs_workload.Benchmark
module P = Rs_core.Params
module Table = Rs_util.Table

type row = {
  label : string;
  correct : float;
  incorrect : float;
  selections : int;
  evictions : int;
  capped : int;
}

type sweep = { title : string; rows : row list }

type t = { sweeps : sweep list }

let benchmarks = [ "crafty"; "gcc"; "gzip"; "mcf" ]

let aggregate label (cells : Rs_sim.Accounting.row array) =
  let correct = ref 0.0 and incorrect = ref 0.0 in
  let selections = ref 0 and evictions = ref 0 and capped = ref 0 in
  Array.iter
    (fun (row : Rs_sim.Accounting.row) ->
      correct := !correct +. row.correct_rate;
      incorrect := !incorrect +. row.incorrect_rate;
      selections := !selections + row.total_selections;
      evictions := !evictions + row.total_evictions;
      capped := !capped + row.capped)
    cells;
  let n = float_of_int (Array.length cells) in
  {
    label;
    correct = !correct /. n;
    incorrect = !incorrect /. n;
    selections = !selections;
    evictions = !evictions;
    capped = !capped;
  }

let hysteresis_shapes =
  [
    ("+50/-1, threshold 10,000 (paper)", P.default);
    (* the same minimum trigger (200 consecutive misspeculations) but no
       asymmetric tolerance of interleaved correct speculations *)
    ("+1/-1, threshold 200", { P.default with misspec_step = 1; evict_threshold = 200 });
    (* faster decay: tolerates much denser misspeculation *)
    ("+50/-5, threshold 10,000", { P.default with correct_step = 5 });
    (* hair-trigger: 20 consecutive misspeculations *)
    ("+50/-1, threshold 1,000", { P.default with evict_threshold = 1_000 });
  ]

let monitor_periods = [ 1_000; 3_000; 10_000; 30_000; 100_000 ]
let wait_periods = [ 100_000; 300_000; 1_000_000; 3_000_000 ]
let oscillation_limits = [ (1, "1"); (5, "5 (paper)"); (max_int / 2, "unbounded") ]
let selection_thresholds = [ 0.99; 0.995; 0.999 ]

let sweep_specs () =
  [
    ("eviction hysteresis shape", hysteresis_shapes);
    ( "monitor period (executions)",
      List.map (fun m -> (Table.fmt_int m, { P.default with monitor_period = m })) monitor_periods
    );
    ( "revisit wait period (executions, paper time)",
      List.map (fun w -> (Table.fmt_int w, { P.default with wait_period = w })) wait_periods );
    ( "oscillation limit (selections per branch)",
      List.map (fun (lim, l) -> (l, { P.default with oscillation_limit = lim })) oscillation_limits
    );
    ( "selection threshold",
      List.map
        (fun th -> (Table.fmt_pct ~decimals:1 th, { P.default with selection_threshold = th }))
        selection_thresholds );
  ]

let run ctx =
  (* Every (configuration, benchmark) simulation is independent: flatten
     the sweeps all the way down to (configuration, benchmark) cells —
     config-major, so [--jobs 1] runs the cache operations in exactly
     the order the old nested loops did — fan the cells out over the
     pool one cell per chunk, then aggregate per configuration and
     slice the ordered results back into their sweeps. *)
  let specs = sweep_specs () in
  let flat = Array.of_list (List.concat_map snd specs) in
  let bms = Array.of_list (List.map BM.find benchmarks) in
  let nb = Array.length bms in
  let cells =
    Rs_util.Pool.map_range (Context.pool ctx) ~lo:0
      ~hi:(Array.length flat * nb)
      (fun k ->
        let _, params = flat.(k / nb) in
        let bm = bms.(k mod nb) in
        let r = Cache.run ctx bm ~input:Ref (Context.params_of ctx params) in
        Rs_sim.Accounting.of_result r)
  in
  let rows =
    Array.mapi (fun i (label, _) -> aggregate label (Array.sub cells (i * nb) nb)) flat
  in
  let index = ref 0 in
  let sweeps =
    List.map
      (fun (title, spec_rows) ->
        let n = List.length spec_rows in
        let rows = Array.to_list (Array.sub rows !index n) in
        index := !index + n;
        { title; rows })
      specs
  in
  { sweeps }

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "Ablations over {%s} (averaged rates; summed churn)\n"
       (String.concat ", " benchmarks));
  List.iter
    (fun sweep ->
      let tbl =
        Table.create ~title:("  " ^ sweep.title)
          ~columns:
            [
              ("configuration", Table.Left);
              ("correct", Table.Right);
              ("incorrect", Table.Right);
              ("selections", Table.Right);
              ("evictions", Table.Right);
              ("capped", Table.Right);
            ]
      in
      List.iter
        (fun r ->
          Table.add_row tbl
            [
              r.label;
              Table.fmt_pct ~decimals:1 r.correct;
              Table.fmt_pct ~decimals:3 r.incorrect;
              Table.fmt_int r.selections;
              Table.fmt_int r.evictions;
              Table.fmt_int r.capped;
            ])
        sweep.rows;
      Buffer.add_string buf (Table.render tbl))
    t.sweeps;
  Buffer.add_string buf
    "  paper touchstones: lowering the eviction threshold is more conservative; longer\n\
    \  monitor periods trade benefit for fewer false positives; the oscillation cap cuts\n\
    \  re-optimization requests by about two-thirds with little effect on the rates.\n";
  Buffer.contents buf
