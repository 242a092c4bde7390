(* Striped, domain-safe metric cells.

   Writes land in the cell indexed by the writing domain's id, so domains
   in the PR-1 pool record without cache-line ping-pong in the common
   case; a reader sums every stripe.  Each stripe is its own [Atomic.t],
   so even two domains that hash to one stripe never lose an increment.
   The stripe count is a power of two well above the pool sizes used
   here (recommended_domain_count on big machines is ~a few dozen). *)

let stripes = 64

let stripe () = (Domain.self () :> int) land (stripes - 1)

type counter = { c_cells : int Atomic.t array }
type gauge = { g_cell : int Atomic.t }

type histogram = {
  bounds : float array;
  (* [stripes] rows of [Array.length bounds + 1] bucket cells, flattened. *)
  h_cells : int Atomic.t array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let atomic_cells n = Array.init n (fun _ -> Atomic.make 0)

let register name make describe_kind =
  Mutex.lock registry_lock;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
      let m = make () in
      Hashtbl.add registry name m;
      m
  in
  Mutex.unlock registry_lock;
  match describe_kind m with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Metrics: %s already registered with another kind" name)

let counter name =
  register name
    (fun () -> Counter { c_cells = atomic_cells stripes })
    (function Counter c -> Some c | _ -> None)

let gauge name =
  register name
    (fun () -> Gauge { g_cell = Atomic.make 0 })
    (function Gauge g -> Some g | _ -> None)

let histogram name ~bounds =
  if Array.length bounds = 0 then invalid_arg "Metrics.histogram: bounds must be non-empty";
  let sorted = Array.for_all2 ( > ) (Array.sub bounds 1 (Array.length bounds - 1))
      (Array.sub bounds 0 (Array.length bounds - 1))
  in
  if not sorted then invalid_arg "Metrics.histogram: bounds must be strictly increasing";
  register name
    (fun () -> Histogram { bounds; h_cells = atomic_cells (stripes * (Array.length bounds + 1)) })
    (function
      | Histogram h when h.bounds = bounds -> Some h
      | Histogram _ -> None
      | _ -> None)

let add c k = Atomic.fetch_and_add c.c_cells.(stripe ()) k |> ignore
let incr c = add c 1
let set g v = Atomic.set g.g_cell v

let observe h x =
  let nb = Array.length h.bounds in
  let rec bucket i = if i >= nb || x <= h.bounds.(i) then i else bucket (i + 1) in
  let cell = (stripe () * (nb + 1)) + bucket 0 in
  Atomic.fetch_and_add h.h_cells.(cell) 1 |> ignore

let counter_value c = Array.fold_left (fun a cell -> a + Atomic.get cell) 0 c.c_cells
let gauge_value g = Atomic.get g.g_cell

let histogram_counts h =
  let nb = Array.length h.bounds + 1 in
  let out = Array.make nb 0 in
  Array.iteri (fun i cell -> out.(i mod nb) <- out.(i mod nb) + Atomic.get cell) h.h_cells;
  out

let histogram_count h = Array.fold_left ( + ) 0 (histogram_counts h)

type value =
  | Counter_value of int
  | Gauge_value of int
  | Histogram_value of { bounds : float array; counts : int array }

let snapshot () =
  Mutex.lock registry_lock;
  let entries = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock registry_lock;
  entries
  |> List.map (fun (name, m) ->
         ( name,
           match m with
           | Counter c -> Counter_value (counter_value c)
           | Gauge g -> Gauge_value (gauge_value g)
           | Histogram h -> Histogram_value { bounds = h.bounds; counts = histogram_counts h } ))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let render_summary () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "metrics summary:\n";
  let entries = snapshot () in
  if entries = [] then Buffer.add_string buf "  (no metrics recorded)\n"
  else
    List.iter
      (fun (name, v) ->
        match v with
        | Counter_value n -> Buffer.add_string buf (Printf.sprintf "  %-36s %d\n" name n)
        | Gauge_value n -> Buffer.add_string buf (Printf.sprintf "  %-36s %d (gauge)\n" name n)
        | Histogram_value { bounds; counts } ->
          let total = Array.fold_left ( + ) 0 counts in
          Buffer.add_string buf (Printf.sprintf "  %-36s %d obs:" name total);
          Array.iteri
            (fun i n ->
              if n > 0 then
                if i < Array.length bounds then
                  Buffer.add_string buf (Printf.sprintf " <=%g:%d" bounds.(i) n)
                else Buffer.add_string buf (Printf.sprintf " >%g:%d" bounds.(i - 1) n))
            counts;
          Buffer.add_char buf '\n')
      entries;
  Buffer.contents buf

let reset () =
  Mutex.lock registry_lock;
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.c_cells
      | Gauge g -> Atomic.set g.g_cell 0
      | Histogram h -> Array.iter (fun cell -> Atomic.set cell 0) h.h_cells)
    registry;
  Mutex.unlock registry_lock
