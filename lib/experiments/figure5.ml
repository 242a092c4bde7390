module BM = Rs_workload.Benchmark
module V = Rs_core.Variants
module Engine = Rs_sim.Engine
module Pareto = Rs_sim.Pareto
module Profile = Rs_sim.Profile
module Table = Rs_util.Table

type cell = { correct : float; incorrect : float }

type bench_row = {
  benchmark : string;
  self_training : cell;
  by_variant : (string * cell) list;
}

type t = { rows : bench_row list; variant_order : string list }

let run_benchmark ctx bm =
  let profile = Cache.profile ctx bm ~input:Ref in
  let st = Pareto.at_threshold profile ~threshold:0.99 in
  let self_training =
    {
      correct = Pareto.correct_rate profile st;
      incorrect = Pareto.incorrect_rate profile st;
    }
  in
  (* Nested sub-sweep: each benchmark's variant runs split
     across the pool, so one slow benchmark no longer serializes its
     seven simulations behind a single task. *)
  let variants = Array.of_list V.all in
  let by_variant =
    Rs_util.Pool.map_range (Context.pool ctx) ~lo:0 ~hi:(Array.length variants) (fun j ->
        let v = variants.(j) in
        let r = Cache.run ctx bm ~input:Ref (Context.params_of ctx v.params) in
        (v.key, { correct = Engine.correct_rate r; incorrect = Engine.incorrect_rate r }))
  in
  { benchmark = bm.name; self_training; by_variant = Array.to_list by_variant }

let run ctx =
  let rows =
    Rs_util.Pool.map_ordered (Context.pool ctx) (run_benchmark ctx) (Array.of_list BM.all)
  in
  { rows = Array.to_list rows; variant_order = List.map (fun (v : V.t) -> v.key) V.all }

let averages t =
  let n = float_of_int (List.length t.rows) in
  List.map
    (fun key ->
      let sum f = List.fold_left (fun a r -> a +. f (List.assoc key r.by_variant)) 0.0 t.rows in
      (key, { correct = sum (fun c -> c.correct) /. n; incorrect = sum (fun c -> c.incorrect) /. n }))
    t.variant_order

let fmt_cell c = Table.fmt_rate_pair ~correct:c.correct ~incorrect:c.incorrect ()

let render t =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "Figure 5: reactive control vs self-training (correct% @ misspec% of dynamic branches)\n";
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "  %s\n" r.benchmark);
      Buffer.add_string buf
        (Printf.sprintf "    %-28s %s\n" "self-training @99%" (fmt_cell r.self_training));
      List.iter
        (fun key ->
          let v = V.find key in
          Buffer.add_string buf
            (Printf.sprintf "    %-28s %s\n" v.label (fmt_cell (List.assoc key r.by_variant))))
        t.variant_order)
    t.rows;
  (* headline shape checks *)
  let avgs = averages t in
  let base = List.assoc "baseline" avgs in
  let noev = List.assoc "no-eviction" avgs in
  let norv = List.assoc "no-revisit" avgs in
  Buffer.add_string buf
    (Printf.sprintf
       "\n  shape checks (averages over benchmarks):\n\
       \    no-eviction misspeculation x%.0f over baseline   (paper: x~86, two orders)\n\
       \    no-revisit keeps %.0f%% of baseline's corrects    (paper: ~80%%)\n"
       (noev.incorrect /. Float.max base.incorrect 1e-12)
       (100.0 *. norv.correct /. Float.max base.correct 1e-12));
  Buffer.contents buf
