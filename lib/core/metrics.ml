(* Named counters, gauges and histograms with periodic snapshotting.

   Counters are owned mutable cells (hot-path increments touch nothing
   else); gauges are closures polled only when a snapshot is taken.
   Histograms use fixed power-of-two buckets so recording is O(1): one
   bit-length loop, one array bump.  The registry keeps no clock of its
   own: each tick carries the owner's clock (the engine's dispatch
   count), so snapshots form a phase-analysis time series over
   dispatches stamped in the same time base as the event stream. *)

type counter = { c_name : string; mutable c_value : int }

type histogram = {
  h_name : string;
  h_buckets : int array;
      (* bucket 0 counts observations <= 0; bucket i (0 < i < last)
         counts [2^(i-1), 2^i - 1]; the last bucket is the overflow
         bucket and is unbounded above *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type source =
  | Counter of counter
  | Gauge of (unit -> int)
  | Hist of histogram

type snapshot = { at : int; values : (string * int) array }

type t = {
  mutable entries : (string * source) list; (* reverse registration order *)
  mutable period : int;
  mutable now : int; (* the clock at the last tick *)
  mutable taken_at : int; (* the clock at the last snapshot or period change *)
  mutable next_at : int; (* the clock of the next periodic snapshot *)
  mutable snaps : snapshot list; (* reverse chronological *)
  mutable callbacks : (snapshot -> unit) list; (* reverse registration *)
}

let create ?(period = 0) () =
  if period < 0 then invalid_arg "Metrics.create: negative period";
  {
    entries = [];
    period;
    now = 0;
    taken_at = 0;
    next_at = period;
    snaps = [];
    callbacks = [];
  }

let period t = t.period

let find t name = List.assoc_opt name t.entries

let counter t name =
  match find t name with
  | Some (Counter c) -> c
  | Some (Gauge _) -> invalid_arg ("Metrics.counter: " ^ name ^ " is a gauge")
  | Some (Hist _) ->
      invalid_arg ("Metrics.counter: " ^ name ^ " is a histogram")
  | None ->
      let c = { c_name = name; c_value = 0 } in
      t.entries <- (name, Counter c) :: t.entries;
      c

let incr ?(by = 1) c = c.c_value <- c.c_value + by

let counter_value c = c.c_value

let gauge t name f =
  match find t name with
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " already registered")
  | None -> t.entries <- (name, Gauge f) :: t.entries

(* histograms *)

let default_buckets = 16

let histogram t ?(buckets = default_buckets) name =
  match find t name with
  | Some (Hist h) -> h
  | Some _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      if buckets < 2 || buckets > 62 then
        invalid_arg "Metrics.histogram: buckets must be in [2, 62]";
      let h =
        {
          h_name = name;
          h_buckets = Array.make buckets 0;
          h_count = 0;
          h_sum = 0;
          h_min = max_int;
          h_max = 0;
        }
      in
      t.entries <- (name, Hist h) :: t.entries;
      h

let bucket_index h v =
  if v <= 0 then 0
  else begin
    (* bit length of v: 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... *)
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    min !b (Array.length h.h_buckets - 1)
  end

let record h v =
  let v = if v < 0 then 0 else v in
  let i = bucket_index h v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_name h = h.h_name

let hist_count h = h.h_count

let hist_sum h = h.h_sum

let hist_min h = if h.h_count = 0 then 0 else h.h_min

let hist_max h = h.h_max

let hist_mean h =
  if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

let n_buckets h = Array.length h.h_buckets

let bucket_count h i = h.h_buckets.(i)

let bucket_bounds h i =
  let n = Array.length h.h_buckets in
  if i < 0 || i >= n then invalid_arg "Metrics.bucket_bounds: out of range";
  if i = 0 then (0, 0)
  else if i = n - 1 then (1 lsl (i - 1), max_int)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let percentile h p =
  if h.h_count = 0 then 0
  else if p <= 0.0 then hist_min h
  else if p >= 100.0 then h.h_max
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let n = Array.length h.h_buckets in
    let cum = ref 0 and i = ref 0 in
    while !i < n - 1 && !cum + h.h_buckets.(!i) < rank do
      cum := !cum + h.h_buckets.(!i);
      i := !i + 1
    done;
    (* report the bucket's upper edge, clamped to the observed range so
       a single-observation histogram answers exactly *)
    let _, hi = bucket_bounds h !i in
    let hi = if hi > h.h_max then h.h_max else hi in
    if hi < hist_min h then hist_min h else hi
  end

(* A histogram flattens into several snapshot fields; counters and
   gauges stay one field each. *)
let flatten_source name = function
  | Counter c -> [ (name, c.c_value) ]
  | Gauge f -> [ (name, f ()) ]
  | Hist h ->
      [
        (name ^ ".count", h.h_count);
        (name ^ ".sum", h.h_sum);
        (name ^ ".p50", percentile h 50.0);
        (name ^ ".p90", percentile h 90.0);
        (name ^ ".p99", percentile h 99.0);
        (name ^ ".max", h.h_max);
      ]

let read_source = function
  | Counter c -> c.c_value
  | Gauge f -> f ()
  | Hist h -> h.h_count

let read t name = Option.map read_source (find t name)

let names t = List.rev_map fst t.entries

let ticks t = t.now

let take t =
  let values =
    List.concat_map
      (fun (name, src) -> flatten_source name src)
      (List.rev t.entries)
  in
  let s = { at = t.now; values = Array.of_list values } in
  t.taken_at <- t.now;
  t.snaps <- s :: t.snaps;
  List.iter (fun f -> f s) (List.rev t.callbacks);
  s

let force_snapshot t = take t

let set_period t p =
  if p < 0 then invalid_arg "Metrics.set_period: negative period";
  (* Ticks since the last snapshot have accumulated toward one that the
     restart below would silently drop; emit it at the change point so the
     series stays gap-free across the boundary. *)
  if t.period > 0 && t.now > t.taken_at then ignore (take t);
  t.period <- p;
  t.next_at <- t.now + p

let tick t ~now =
  t.now <- now;
  if t.period > 0 && now >= t.next_at then begin
    (* the first boundary past [now] on the period's grid *)
    t.next_at <- t.next_at + ((((now - t.next_at) / t.period) + 1) * t.period);
    ignore (take t)
  end

let snapshots t = List.rev t.snaps

let on_snapshot t f = t.callbacks <- f :: t.callbacks

let counter_name c = c.c_name
