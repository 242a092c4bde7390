(* The work-stealing scheduler: deque semantics, splittable map_range,
   jobs-independence under random nesting, and the post/close drain
   guarantee. *)

module Pool = Rs_util.Pool
module Deque = Rs_util.Deque

let busy n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc * 7) + i
  done;
  !acc

let with_pool ?(jobs = 4) f =
  let pool = Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () -> f pool

(* --- deque ----------------------------------------------------------------- *)

let test_deque_ends () =
  let d = Deque.create () in
  Alcotest.(check (option int)) "empty pop" None (Deque.pop d);
  Alcotest.(check (option int)) "empty steal" None (Deque.steal d);
  (* past the initial capacity, so growth is exercised *)
  for i = 1 to 20 do
    Deque.push d i
  done;
  Alcotest.(check int) "length" 20 (Deque.length d);
  Alcotest.(check (option int)) "owner pops newest (LIFO)" (Some 20) (Deque.pop d);
  Alcotest.(check (option int)) "thief steals oldest (FIFO)" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "next steal" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "next pop" (Some 19) (Deque.pop d);
  let rec drain acc = match Deque.pop d with Some v -> drain (v :: acc) | None -> acc in
  Alcotest.(check (list int)) "drain by pop returns the middle, oldest first"
    (List.init 16 (fun i -> i + 3))
    (drain [])

(* Stealing advances the ring's head; pushing afterwards must wrap
   around the buffer rather than overwrite live cells. *)
let test_deque_wraparound () =
  let d = Deque.create () in
  for i = 1 to 6 do
    Deque.push d i
  done;
  for _ = 1 to 4 do
    ignore (Deque.steal d)
  done;
  for i = 7 to 12 do
    Deque.push d i
  done;
  let rec drain acc = match Deque.steal d with Some v -> drain (v :: acc) | None -> acc in
  Alcotest.(check (list int)) "wrapped contents survive, FIFO"
    [ 5; 6; 7; 8; 9; 10; 11; 12 ]
    (List.rev (drain []))

(* --- map_range ------------------------------------------------------------- *)

let test_map_range_basics () =
  with_pool @@ fun pool ->
  Alcotest.(check (array int)) "empty range" [||] (Pool.map_range pool ~lo:3 ~hi:3 Fun.id);
  Alcotest.(check (array int)) "offset range" [| 9; 16; 25 |]
    (Pool.map_range pool ~lo:3 ~hi:6 (fun i -> i * i));
  (* a coarse cutoff changes scheduling, never results *)
  let expect = Array.init 100 (fun i -> i * 3) in
  Alcotest.(check (array int)) "cutoff 16"
    expect
    (Pool.map_range pool ~cutoff:16 ~lo:0 ~hi:100 (fun i -> i * 3));
  let sum = ref 0 in
  Pool.parallel_for pool ~lo:0 ~hi:50 (fun i -> ignore (busy 100); ignore i);
  ignore !sum

let test_map_range_splits_and_steals () =
  let splits_before = (Pool.stats ()).splits in
  let steals_before = (Pool.stats ()).steals in
  with_pool ~jobs:4 @@ fun pool ->
  (* enough uneven work that idle workers provably steal *)
  let out =
    Pool.map_range pool ~lo:0 ~hi:64 (fun i ->
        ignore (busy (if i mod 7 = 0 then 400_000 else 2_000));
        i)
  in
  Alcotest.(check (array int)) "results in order" (Array.init 64 Fun.id) out;
  Alcotest.(check bool) "range was split" true ((Pool.stats ()).splits > splits_before);
  Alcotest.(check bool) "workers stole sub-ranges" true ((Pool.stats ()).steals > steals_before)

let test_map_range_jobs1_strict_order () =
  with_pool ~jobs:1 @@ fun pool ->
  let trace = ref [] in
  let out =
    Pool.map_range pool ~lo:2 ~hi:10 (fun i ->
        trace := i :: !trace;
        i)
  in
  Alcotest.(check (list int)) "strict left-to-right" [ 9; 8; 7; 6; 5; 4; 3; 2 ] !trace;
  Alcotest.(check (array int)) "values" (Array.init 8 (fun i -> i + 2)) out

(* Random nesting depths and uneven durations: results must not depend
   on jobs.  Uses the repo PRNG so failures replay deterministically. *)
let nested_identity_prop (seed, n, depth, width) =
  let rec go pool ~seed ~depth i =
    let h = (seed * 1_000_003) + (i * 8191) + depth land 0xffffff in
    ignore (busy (h land 0x1ff));
    if depth = 0 then h land 0xffff
    else
      let inner =
        Pool.map_range pool ~lo:0 ~hi:width (fun j -> go pool ~seed:(h + j) ~depth:(depth - 1) j)
      in
      Array.fold_left ( + ) (h land 0xffff) inner
  in
  let run jobs =
    let pool = Pool.create ~jobs () in
    Fun.protect ~finally:(fun () -> Pool.close pool) @@ fun () ->
    Pool.map_range pool ~lo:0 ~hi:n (fun i -> go pool ~seed ~depth i)
  in
  run 1 = run 8

let nested_identity_test =
  Prop.test ~count:10 "nested map_range is jobs-independent"
    ~print:(fun (s, n, d, w) -> Printf.sprintf "seed=%d n=%d depth=%d width=%d" s n d w)
    (fun rng ->
      ( Prop.int ~lo:0 ~hi:1_000_000 rng,
        Prop.int ~lo:0 ~hi:9 rng,
        Prop.int ~lo:0 ~hi:2 rng,
        Prop.int ~lo:1 ~hi:5 rng ))
    nested_identity_prop

(* --- post / close drain ---------------------------------------------------- *)

let test_jobs1_post_drained_at_close () =
  let pool = Pool.create ~jobs:1 () in
  let hits = ref [] in
  Pool.post pool (fun () -> hits := 1 :: !hits);
  Pool.post pool (fun () -> hits := 2 :: !hits);
  (* no worker domains: nothing may run until the close drain *)
  Alcotest.(check (list int)) "not yet run" [] !hits;
  Pool.close pool;
  Alcotest.(check (list int)) "drained in submission order at close" [ 1; 2 ] (List.rev !hits)

let suite =
  [
    Alcotest.test_case "deque ends" `Quick test_deque_ends;
    Alcotest.test_case "deque wraparound" `Quick test_deque_wraparound;
    Alcotest.test_case "map_range basics" `Quick test_map_range_basics;
    Alcotest.test_case "map_range splits and steals" `Quick test_map_range_splits_and_steals;
    Alcotest.test_case "map_range jobs=1 strict order" `Quick test_map_range_jobs1_strict_order;
    nested_identity_test;
    Alcotest.test_case "jobs=1 post drained at close" `Quick test_jobs1_post_drained_at_close;
  ]
