(* The repository benchmark.

   Three workloads drive the public API (Workloads, Cfg.Layout,
   Vm.Interp, Tracegen.Engine / Session / Profiler / Trace_cache) in one
   process, one domain and no threads.  An execution steps one
   [Vm.Interp] handle per program in batches of [batch] VM blocks, the
   engine attached through [Engine.on_block] / [Engine.attach].  Tracing
   is a pure overlay, so the VM block stream, and with it every batch
   boundary, is the same on every commit.

   [--trace 0] repeats whole executions for [--seconds] and reports the
   end-to-end metrics.  [--trace 1] records the benchmark's own spans and
   measures the per-layer metrics: an interleaved ladder of engine
   configurations, replays of recorded block streams, persistence and
   session costs.  README.md in this directory lists every metric, the
   layer it belongs to and the end-to-end metric it should move. *)

open Tracegen
module Interp = Vm.Interp
module Layout = Cfg.Layout

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let batch = 4096

(* ------------------------------------------------------------------ *)
(* Samples.  Recording into an [Ibuf] allocates nothing on the minor
   heap, so the benchmark's own bookkeeping does not move minor_words. *)

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    Array.unsafe_set b.a b.n x;
    b.n <- b.n + 1

  let to_floats b = Array.init b.n (fun i -> float b.a.(i))
end

(* Quantiles by linear interpolation between order statistics. *)
let quantile xs q =
  let s = Array.copy xs in
  Array.sort compare s;
  let n = Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile xs 0.5

let iqr xs = quantile xs 0.75 -. quantile xs 0.25

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans: name, start, end, parent span and
   execution id, kept in flat arrays and written out when the run ends. *)

module Span = struct
  let names =
    [|
      "exec"; "setup"; "program"; "layout"; "engine"; "restore"; "snapshot";
      "batch"; "stats"; "replay.profiler"; "replay.lookup"; "rung";
      "session"; "solo";
    |]

  let exec_ = 0

  let setup = 1

  let program = 2

  let layout = 3

  let engine = 4

  let restore = 5

  let snapshot = 6

  let batch = 7

  let stats = 8

  let replay_profiler = 9

  let replay_lookup = 10

  let rung = 11

  let session = 12

  let solo = 13

  let on = ref false

  let exec_id = ref 0

  let name = Ibuf.create ()

  let start = Ibuf.create ()

  let stop = Ibuf.create ()

  let parent = Ibuf.create ()

  let exec = Ibuf.create ()

  let stack = Array.make 64 (-1)

  let depth = ref 0

  let add nm t0 t1 =
    let id = name.Ibuf.n in
    Ibuf.push name nm;
    Ibuf.push start t0;
    Ibuf.push stop t1;
    Ibuf.push parent (if !depth = 0 then -1 else stack.(!depth - 1));
    Ibuf.push exec !exec_id;
    id

  let enter nm =
    if !on then begin
      stack.(!depth) <- add nm (now_ns ()) 0;
      incr depth
    end

  let leave () =
    if !on then begin
      decr depth;
      stop.Ibuf.a.(stack.(!depth)) <- now_ns ()
    end

  let leaf nm t0 t1 = if !on then ignore (add nm t0 t1)

  let within nm f =
    enter nm;
    let r = f () in
    leave ();
    r

  (* Self time per span name, in ns: a span's duration minus the part
     its children cover (children never overlap: one thread). *)
  let self_times () =
    let n = name.Ibuf.n in
    let self = Array.init n (fun i -> stop.Ibuf.a.(i) - start.Ibuf.a.(i)) in
    for i = 0 to n - 1 do
      let p = parent.Ibuf.a.(i) in
      if p >= 0 then self.(p) <- self.(p) - (stop.Ibuf.a.(i) - start.Ibuf.a.(i))
    done;
    let tot = Array.make (Array.length names) 0 in
    for i = 0 to n - 1 do
      tot.(name.Ibuf.a.(i)) <- tot.(name.Ibuf.a.(i)) + self.(i)
    done;
    Array.to_list (Array.mapi (fun k s -> (names.(k), s)) tot)

  let write path =
    let oc = open_out path in
    let t0 = if name.Ibuf.n > 0 then start.Ibuf.a.(0) else 0 in
    for i = 0 to name.Ibuf.n - 1 do
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"exec\":%d}\n"
        i names.(name.Ibuf.a.(i)) (start.Ibuf.a.(i) - t0) (stop.Ibuf.a.(i) - t0)
        parent.Ibuf.a.(i) exec.Ibuf.a.(i)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Programs and seeds.  The seed picks each program's size within a
   narrow band around its base size, and the member order of the
   session workload; the program itself sees only the generated
   bytecode. *)

type spec = { prog : string; base : int; step : int; half : int; salt : int }

(* scimark's size counts whole rounds of its four kernels, so its only
   narrow band is the base size itself. *)
let mpegaudio = { prog = "mpegaudio"; base = 4800; step = 24; half = 2; salt = 1 }

let scimark = { prog = "scimark"; base = 2; step = 0; half = 0; salt = 2 }

let javac = { prog = "javac"; base = 2000; step = 20; half = 2; salt = 3 }

let soot = { prog = "soot"; base = 40; step = 1; half = 1; salt = 4 }

let band s =
  List.sort_uniq compare
    (List.init ((2 * s.half) + 1) (fun k -> s.base + (s.step * (k - s.half))))

let mix seed salt =
  let z = (seed + (salt * 0x1E3779B97F4A7C15)) land max_int in
  let z = (z lxor (z lsr 29)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 32)) * 0x14D049BB133111EB land max_int in
  z lxor (z lsr 31)

let size_of s seed = s.base + (s.step * ((mix seed s.salt mod ((2 * s.half) + 1)) - s.half))

type workload = {
  wname : string;
  members : (string * spec) list;
  cap : int;  (** [max_cache_traces]; 0 = unbounded *)
  warm : bool;  (** every execution restores a snapshot of a cold run *)
  subscribe : bool;  (** each member engine has a counting subscriber *)
}

let workloads =
  [
    {
      wname = "hot-dispatch";
      members = [ ("mpegaudio", mpegaudio) ];
      cap = 0;
      warm = false;
      subscribe = false;
    };
    {
      wname = "vm-warm";
      members = [ ("scimark", scimark) ];
      cap = 0;
      warm = true;
      subscribe = false;
    };
    {
      wname = "bounded-session";
      members = [ ("javac.1", javac); ("javac.2", javac); ("soot", soot) ];
      cap = 16;
      warm = false;
      subscribe = true;
    };
  ]

(* Members in seed order, each with its size. *)
let plan wl seed =
  let ms = List.map (fun (l, s) -> (l, s, size_of s seed)) wl.members in
  match ms with
  | [ a; b; c ] ->
      let perms =
        [| [ a; b; c ]; [ a; c; b ]; [ b; a; c ]; [ b; c; a ]; [ c; a; b ]; [ c; b; a ] |]
      in
      perms.(mix seed 5 mod 6)
  | ms -> ms

(* ------------------------------------------------------------------ *)
(* Expected outputs, generated once from [Vm.Interp.run_plain]: one
   line "program size return instructions blocks" per size a seed can
   pick. *)

type expect = { ret : string; instrs : int; blocks : int }

(* The outcome as one space-free token of the expected-output table. *)
let ret_string outcome =
  String.map
    (fun c -> if c = ' ' then '_' else c)
    (match outcome with
    | Interp.Finished None -> "none"
    | Finished (Some v) -> Vm.Value.to_string v
    | Trapped (k, _) -> "trap:" ^ Interp.error_kind_to_string k)

let build_program prog size =
  let w =
    match Workloads.Registry.find prog with
    | Some w -> w
    | None -> failwith ("unknown program " ^ prog)
  in
  w.Workloads.Workload.build ~size

let gen_expected () =
  let specs = [ mpegaudio; scimark; javac; soot ] in
  List.iter
    (fun s ->
      List.iter
        (fun size ->
          let layout = Layout.build (build_program s.prog size) in
          let r = Interp.run_plain layout in
          Printf.printf "%s %d %s %d %d\n" s.prog size (ret_string r.outcome) r.instructions
            r.block_dispatches)
        (band s))
    specs

let load_expected path =
  let tbl = Hashtbl.create 16 in
  let ic = open_in path in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         Scanf.sscanf line " %s %d %s %d %d" (fun p size ret instrs blocks ->
             Hashtbl.replace tbl (p, size) { ret; instrs; blocks })
     done
   with End_of_file -> ());
  close_in ic;
  tbl

(* ------------------------------------------------------------------ *)
(* Instances: one set-up of a workload under one engine configuration. *)

type member = {
  label : string;
  program : string;
  size : int;
  id : int;  (** session id, stamped on traces this member builds *)
  engine : Engine.t option;  (** [None]: the plain VM *)
  handle : Interp.handle;
}

type rung = {
  rname : string;
  backend : Engine.backend_kind option;
  cfg : Config.t option;  (** [None]: [Vm.Interp.run_plain] in batches *)
  subscriber : bool;
}

let events_seen = ref 0

let counting_events () =
  let ev = Events.create () in
  ignore (Events.subscribe ev (fun _ -> incr events_seen));
  ev

type setup_times = { program_ns : int; layout_ns : int; engine_ns : int }

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Program generation, layout, engine creation (plus handle start and
   attach, as [Session.add] does) and, with [snapshot], the restore. *)
let setup plan rung ~snapshot ~fail =
  Span.within Span.setup @@ fun () ->
  let programs = ref [] and prog_ns = ref 0 and lay_ns = ref 0 in
  List.iter
    (fun (_, s, size) ->
      if not (List.mem_assoc s.prog !programs) then begin
        let p, dp =
          timed (fun () -> Span.within Span.program (fun () -> build_program s.prog size))
        in
        let l, dl = timed (fun () -> Span.within Span.layout (fun () -> Layout.build p)) in
        prog_ns := !prog_ns + dp;
        lay_ns := !lay_ns + dl;
        programs := (s.prog, l) :: !programs
      end)
    plan;
  let t0 = now_ns () in
  let made = ref [] in
  let members =
    List.mapi
      (fun i (label, s, size) ->
        let layout = List.assoc s.prog !programs in
        Span.within Span.engine @@ fun () ->
        match rung.cfg with
        | None ->
            let handle = Interp.start layout ~on_block:(fun _ -> ()) in
            { label; program = s.prog; size; id = i + 1; engine = None; handle }
        | Some config ->
            let cache =
              List.find_map
                (fun e -> if Engine.layout e == layout then Some (Engine.cache e) else None)
                !made
            in
            let events = if rung.subscriber then Some (counting_events ()) else None in
            let e = Engine.create ~config ?events ?cache ?backend:rung.backend layout in
            made := e :: !made;
            let handle = Interp.start layout ~on_block:(fun g -> Engine.on_block e g) in
            Engine.attach e handle;
            { label; program = s.prog; size; id = i + 1; engine = Some e; handle })
      plan
  in
  (match snapshot with
  | Some snap ->
      List.iter
        (fun m ->
          match m.engine with
          | Some e -> (
              match Span.within Span.restore (fun () -> Engine.restore e snap) with
              | Ok _ -> ()
              | Error err -> fail ("restore: " ^ Persist.error_to_string err))
          | None -> ())
        members
  | None -> ());
  ( Array.of_list members,
    { program_ns = !prog_ns; layout_ns = !lay_ns; engine_ns = now_ns () - t0 } )

(* Time spent inside [Interp.step_blocks], over all batches. *)
let stepping_ns = ref 0

(* Round-robin the members, one batch per turn, until [limit] blocks
   have run or every program stopped.  Members sharing a cache announce
   themselves before each turn, as [Session] members do.  [on_batch]
   sees the start, end and block count of every batch. *)
let drive members ~limit ~on_batch =
  let multi = Array.length members > 1 in
  let total = ref 0 and live = ref true in
  while !live && !total < limit do
    live := false;
    for i = 0 to Array.length members - 1 do
      let m = members.(i) in
      if Interp.running m.handle && !total < limit then begin
        (match m.engine with
        | Some e when multi -> Trace_cache.set_session (Engine.cache e) m.id
        | _ -> ());
        let want = min batch (limit - !total) in
        let t0 = now_ns () in
        let n = Interp.step_blocks m.handle want in
        let t1 = now_ns () in
        stepping_ns := !stepping_ns + (t1 - t0);
        total := !total + n;
        on_batch t0 t1 n;
        live := true
      end
    done
  done;
  !total

let no_batch _ _ _ = ()

let span_batch t0 t1 _ = Span.leaf Span.batch t0 t1

(* Compare every finished member with the checked-in expectation. *)
let check expected members ~fail =
  Array.iter
    (fun m ->
      let r = Interp.result_of m.handle in
      match Hashtbl.find_opt expected (m.program, m.size) with
      | None -> fail (Printf.sprintf "%s: no expected output for size %d" m.label m.size)
      | Some x ->
          let ret = ret_string r.Interp.outcome in
          if ret <> x.ret || r.instructions <> x.instrs || r.block_dispatches <> x.blocks then
            fail
              (Printf.sprintf "%s (size %d): got %s/%d/%d, expected %s/%d/%d" m.label m.size
                 ret r.instructions r.block_dispatches x.ret x.instrs x.blocks))
    members

(* The reference kernel: fixed code, independent of the code under
   test, whose speed tracks the host's.  It mixes the two kinds of work
   the VM does: a small stack interpreter over boxed values reading and
   writing a 2 MB array, and allocation churn that keeps the major heap
   busy.  Its data is allocated on first use, after the heap probe. *)
module Ref = struct
  type v = I of int | A of v array

  type op =
    | Push of int
    | Load of int
    | Store of int
    | Add
    | Mul
    | Lt
    | Jz of int
    | Jmp of int
    | Aget
    | Aset
    | Halt

  let mask = 262143

  (* for i < n: x = a[h(i)] + i; a[h'(i)] <- x *)
  let code =
    [|
      Push 0; Store 1;
      Load 1; Load 0; Lt; Jz 25;
      Load 2; Load 1; Push 7; Mul; Push mask; Aget;
      Load 1; Add; Store 3;
      Load 2; Load 1; Push mask; Load 3; Aset;
      Load 1; Push 1; Add; Store 1; Jmp 2;
      Halt;
    |]

  let data = lazy (Array.make (mask + 1) (I 1), Array.make (mask + 1) (I 0))

  let interpret big n =
    let locals = [| I n; I 0; A big; I 0 |] in
    let stack = Array.make 16 (I 0) in
    let sp = ref 0 and pc = ref 0 and go = ref true in
    let push v =
      stack.(!sp) <- v;
      incr sp
    in
    let pop () =
      decr sp;
      stack.(!sp)
    in
    let int () = match pop () with I x -> x | A _ -> 0 in
    while !go do
      let op = code.(!pc) in
      incr pc;
      match op with
      | Push k -> push (I k)
      | Load k -> push locals.(k)
      | Store k -> locals.(k) <- pop ()
      | Add ->
          let b = int () in
          push (I (int () + b))
      | Mul ->
          let b = int () in
          let a = int () in
          push (I ((a * b) + (a lsr 3)))
      | Lt ->
          let b = int () in
          push (I (if int () < b then 1 else 0))
      | Jz t -> if int () = 0 then pc := t
      | Jmp t -> pc := t
      | Aget -> (
          let m = int () in
          let i = int () in
          match pop () with A a -> push a.(i * 40503 land m) | I _ -> push (I 0))
      | Aset -> (
          let x = pop () in
          let m = int () in
          let i = int () in
          match pop () with A a -> a.(i * 7919 land m) <- x | I _ -> ())
      | Halt -> go := false
    done;
    locals.(3)

  let churn ring n =
    for i = 0 to n - 1 do
      let k = i * 40503 land mask in
      ring.(k) <-
        (match ring.(k) with
        | I x -> A [| I (x + i); I k |]
        | A a -> ( match a.(0) with I x -> I (x + 1) | A _ -> I 0))
    done

  (* Minor words the kernel allocated, kept out of the measured
     execution's minor words. *)
  let words = ref 0

  (* Run [n] iterations; the time of one, in ps. *)
  let sample_ps n =
    let big, ring = Lazy.force data in
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    ignore (Sys.opaque_identity (interpret big n));
    churn ring (2 * n);
    let dt = now_ns () - t0 in
    words := !words + int_of_float (Gc.minor_words () -. w0);
    dt * 1000 / n
end

(* ------------------------------------------------------------------ *)
(* Configurations. *)

(* Configurations the sensitivity self-test compares with the normal
   one. *)
type variant = Normal | Debug_checks | Attribution | Subscriber

let config ?(build_traces = true) ?(tier = false) ?(recorder = true) ?(obs = false)
    ?(debug = false) wl =
  Config.make ~max_cache_traces:wl.cap ~build_traces ~tier
    ~flightrec_capacity:(if recorder then Config.flightrec_capacity Config.default else 0)
    ~ledger:recorder ~obs_spans:obs ~obs_attribution:obs ~debug_checks:debug ()

let default_rung ?(variant = Normal) wl =
  let cfg =
    match variant with
    | Normal -> config wl
    | Debug_checks -> config ~debug:true wl
    | Subscriber -> config wl
    | Attribution ->
        Config.with_obs (config wl) { (config wl).Config.obs with Config.Obs.attribution = true }
  in
  { rname = "default"; backend = None; cfg = Some cfg; subscriber = wl.subscribe || variant = Subscriber }

(* The layer ladder.  Rungs 1-5 run with the flight recorder and ledger
   off; rung 6 is the default configuration.  [base.(k)] is the rung
   that rung [k]'s layer is measured against: the compiled tier and the
   recorder both sit on top of plain trace dispatch. *)
let ladder wl =
  let r ?backend ?(subscriber = false) rname cfg = { rname; backend; cfg; subscriber } in
  [|
    r "vm" None;
    r "engine" ~backend:Engine.Interp (Some (config ~recorder:false wl));
    r "profiler" (Some (config ~build_traces:false ~recorder:false wl));
    r "trace" (Some (config ~recorder:false wl));
    r "microir" (Some (config ~tier:true ~recorder:false wl));
    r "obs.flightrec_ledger" (Some (config wl));
    r "obs.events" ~subscriber:true (Some (config wl));
    r "obs.spans" ~subscriber:true (Some (config ~obs:true wl));
    r "obs.debug_checks" ~subscriber:true (Some (config ~obs:true ~debug:true wl));
  |]

let ladder_base = [| -1; 0; 1; 2; 3; 3; 5; 6; 7 |]

(* ------------------------------------------------------------------ *)
(* Results. *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
}

let out = { attempted = 0; failed = 0; messages = [] }

(* One execution is attempted; [fail] marks it failed (once). *)
let attempt f =
  out.attempted <- out.attempted + 1;
  let failed = ref false in
  let fail msg =
    if not !failed then out.failed <- out.failed + 1;
    failed := true;
    out.messages <- msg :: out.messages
  in
  f fail

let metrics : (string * float * string) list ref = ref []

let metric name value unit = metrics := (name, value, unit) :: !metrics

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result () =
  let ms =
    List.rev_map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (out.failed = 0) out.attempted out.failed (String.concat ", " ms)

(* A whole execution: set up [reps] times (each set-up is one set-up
   sample; the last instance runs), then drive every batch. *)
type exec = {
  blocks : int;
  wall_ns : int;
  minor_words : float;
  members : member array;
}

let execute ?(reps = 1) ?(on_setup = fun _ _ -> ()) ~expected ~snapshot plan rung ~on_batch
    =
  attempt @@ fun fail ->
  incr Span.exec_id;
  Span.within Span.exec_ @@ fun () ->
  Gc.full_major ();
  let inst = ref [||] in
  for _ = 1 to reps do
    let (ms, parts), dt = timed (fun () -> setup plan rung ~snapshot ~fail) in
    on_setup dt parts;
    inst := ms
  done;
  let members = !inst in
  let ref_words = !Ref.words in
  let mw0 = Gc.minor_words () in
  let s0 = !stepping_ns in
  let blocks = drive members ~limit:max_int ~on_batch in
  let wall_ns = !stepping_ns - s0 in
  let mw1 = Gc.minor_words () in
  Span.within Span.stats (fun () -> check expected members ~fail);
  let minor_words = mw1 -. mw0 -. float (!Ref.words - ref_words) in
  { blocks; wall_ns; minor_words; members }

(* The untimed cold run whose end state [vm-warm] restores. *)
let cold_snapshot ~expected wl plan =
  let e = execute ~expected ~snapshot:None plan (default_rung wl) ~on_batch:no_batch in
  Span.within Span.snapshot (fun () ->
      Option.map Engine.snapshot e.members.(0).engine)

(* ------------------------------------------------------------------ *)
(* --trace 0: the end-to-end metrics. *)

(* The host's speed drifts by tens of percent over seconds and minutes,
   and the drift is largely shared by every program on it.  The
   reference kernel measures it: it runs before and after each execution
   and for a short slice after every [ref_every] batches.  Timed
   end-to-end metrics are in reference time: wall time scaled by
   [ref_nominal_ps] over the kernel's mean time per iteration around
   and during that execution.  On a machine where one iteration takes
   [ref_nominal_ps], reference time is wall time.  The batch after a
   slice starts with caches the kernel disturbed, so it is left out of
   the batch percentiles (not out of blocks_per_s). *)
let ref_nominal_ps = 400_000

let ref_every = 16

let untraced ~expected ~seconds ~variant wl plan =
  let snapshot = if wl.warm then cold_snapshot ~expected wl plan else None in
  let rung = default_rung ~variant wl in
  (* The heap probe: a first execution before the reference kernel has
     allocated anything, so its peak heap is the program's alone. *)
  ignore (execute ~expected ~snapshot plan rung ~on_batch:no_batch);
  let peak_heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let raw = Ibuf.create () in
  let batches = ref [] and setups = ref [] in
  let bps = ref [] and raw_bps = ref [] and words = ref [] in
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let runs = ref 0 in
  while !runs < 3 || now_ns () < deadline do
    incr runs;
    raw.Ibuf.n <- 0;
    let setup_ns = ref [] in
    let k = ref 0 and skip = ref false in
    let ps_sum = ref (Ref.sample_ps 15_000) and slices = ref 1 in
    let e =
      execute ~reps:3 ~expected ~snapshot plan rung
        ~on_setup:(fun dt _ -> setup_ns := dt :: !setup_ns)
        ~on_batch:(fun t0 t1 n ->
          if n = batch && not !skip then Ibuf.push raw (t1 - t0);
          skip := false;
          incr k;
          if !k mod ref_every = 0 then begin
            ps_sum := !ps_sum + Ref.sample_ps 3_000;
            incr slices;
            skip := true
          end)
    in
    ps_sum := !ps_sum + Ref.sample_ps 15_000;
    let scale = float ref_nominal_ps /. (float !ps_sum /. float (!slices + 1)) in
    let rate = float e.blocks /. (float e.wall_ns *. 1e-9) in
    raw_bps := rate :: !raw_bps;
    bps := (rate /. scale) :: !bps;
    batches := Array.map (fun ns -> ns *. scale /. 1e3) (Ibuf.to_floats raw) :: !batches;
    setups := List.map (fun ns -> float ns *. scale /. 1e9) !setup_ns @ !setups;
    words := (e.minor_words /. float e.blocks) :: !words
  done;
  let b = Array.concat !batches and setup_s = Array.of_list !setups in
  let arr l = Array.of_list l in
  Printf.printf "workload %s: %d executions, %d full batches of %d blocks, %d set-ups\n"
    wl.wname !runs (Array.length b) batch (Array.length setup_s);
  Printf.printf "  blocks/s median %.0f iqr %.0f n %d (wall clock: median %.0f iqr %.0f)\n"
    (median (arr !bps)) (iqr (arr !bps)) (List.length !bps) (median (arr !raw_bps))
    (iqr (arr !raw_bps));
  Printf.printf "  batch us p50 %.1f p90 %.1f n %d\n" (quantile b 0.5) (quantile b 0.9)
    (Array.length b);
  let ok = float (out.attempted - out.failed) /. float out.attempted in
  metric "blocks_per_s" (median (arr !bps)) "1/s";
  metric "batch_us_p50" (quantile b 0.5) "us";
  metric "batch_us_p90" (quantile b 0.9) "us";
  metric "minor_words_per_block" (median (arr !words)) "words";
  metric "peak_heap_mb" peak_heap_mb "MB";
  metric "setup_s" (median setup_s) "s";
  metric "ok_frac" ok "frac"

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer metrics. *)

(* A per-layer timing: report median, spread and sample count. *)
let report name unit xs =
  Printf.printf "  %-36s median %12.4f  iqr %10.4f  n %d  (%s)\n" name (median xs) (iqr xs)
    (Array.length xs) unit;
  metric name (median xs) unit

let ratio a b = if b = 0 then 0.0 else float a /. float b

(* Counters of one finished default execution, summed over members
   (cache figures over the distinct caches). *)
type counts = {
  esum : (Engine.t -> int) -> int;  (** over member engines *)
  ssum : (Stats.t -> int) -> int;  (** over member statistics *)
  csum : (Trace_cache.t -> int) -> int;  (** over distinct caches *)
  entries : int;
}

let counters e =
  let engines = Array.to_list (Array.map (fun m -> Option.get m.engine) e.members) in
  let esum f = List.fold_left (fun n x -> n + f x) 0 engines in
  let stats =
    Array.to_list
      (Array.map
         (fun m ->
           Engine.stats (Option.get m.engine) ~vm_result:(Interp.result_of m.handle)
             ~wall_seconds:0.0)
         e.members)
  in
  let ssum f = List.fold_left (fun n s -> n + f s) 0 stats in
  let caches =
    List.fold_left
      (fun acc e -> if List.memq (Engine.cache e) acc then acc else Engine.cache e :: acc)
      [] engines
  in
  let csum f = List.fold_left (fun n c -> n + f c) 0 caches in
  { esum; ssum; csum; entries = esum Engine.traces_entered }

let traced ~expected ~seconds wl plan =
  Span.on := true;
  let t_start = now_ns () in
  let budget frac = t_start + int_of_float (frac *. float seconds *. 1e9) in
  let snapshot = if wl.warm then cold_snapshot ~expected wl plan else None in
  let rung = default_rung wl in
  let prog_ms = ref [] and lay_ms = ref [] and eng_ms = ref [] in
  let on_setup _ p =
    prog_ms := (float p.program_ns /. 1e6) :: !prog_ms;
    lay_ms := (float p.layout_ns /. 1e6) :: !lay_ms;
    eng_ms := (float p.engine_ns /. 1e6) :: !eng_ms
  in
  (* Tracing overhead: default executions with the benchmark's spans on
     and off, alternating. *)
  let on_bps = ref [] and off_bps = ref [] and last = ref None in
  let pair = ref 0 in
  while !pair < 1 || now_ns () < budget 0.25 do
    List.iter
      (fun traced ->
        Span.on := traced;
        let e = execute ~expected ~snapshot ~on_setup plan rung ~on_batch:span_batch in
        let bps = float e.blocks /. (float e.wall_ns *. 1e-9) in
        if traced then begin
          on_bps := bps :: !on_bps;
          last := Some e
        end
        else off_bps := bps :: !off_bps)
      (if !pair mod 2 = 0 then [ true; false ] else [ false; true ]);
    incr pair
  done;
  Span.on := true;
  let e = Option.get !last in
  let c = counters e in
  (* The compiled tier's own counters come from one tier-on execution. *)
  let tier_rung = { rung with cfg = Some (config ~tier:true wl) } in
  let te = execute ~expected ~snapshot ~on_setup plan tier_rung ~on_batch:no_batch in
  let tc = counters te in
  (* Persistence, on the first member's end-of-run engine. *)
  let e0 = Option.get e.members.(0).engine in
  let snap_ms = ref [] and rest_ms = ref [] and snap_bytes = ref 0 in
  for _ = 1 to 5 do
    let s, dt = timed (fun () -> Span.within Span.snapshot (fun () -> Engine.snapshot e0)) in
    snap_bytes := String.length s;
    snap_ms := (float dt /. 1e6) :: !snap_ms;
    let fresh = Engine.create ~config:(Engine.config e0) (Engine.layout e0) in
    let r, dt = timed (fun () -> Span.within Span.restore (fun () -> Engine.restore fresh s)) in
    (match r with
    | Ok _ -> ()
    | Error err -> attempt (fun fail -> fail ("restore: " ^ Persist.error_to_string err)));
    rest_ms := (float dt /. 1e6) :: !rest_ms
  done;
  (* Replays: the first member's VM block stream, recorded from a plain
     run, fed to a fresh profiler alone and, as (prev, cur) pairs, to
     the end-of-run trace cache. *)
  let layout0 = Engine.layout e0 in
  let stream = Ibuf.create () in
  let rec_len = 131072 in
  let h = Interp.start layout0 ~on_block:(fun g -> Ibuf.push stream g) in
  ignore (Interp.step_blocks h rec_len);
  let g = Array.sub stream.Ibuf.a 0 stream.Ibuf.n in
  let n = Array.length g in
  let hook_ns = ref [] and lookup_ns = ref [] and hits = ref 0 in
  let cache0 = Engine.cache e0 in
  for _ = 1 to 7 do
    let p = Profiler.create (Engine.config e0) ~n_blocks:layout0.Layout.n_blocks ~on_signal:ignore in
    let (), dt =
      timed (fun () ->
          Span.within Span.replay_profiler (fun () ->
              for i = 0 to n - 1 do
                Profiler.dispatch p g.(i)
              done))
    in
    hook_ns := (float dt /. float n) :: !hook_ns;
    let h = ref 0 in
    let (), dt =
      timed (fun () ->
          Span.within Span.replay_lookup (fun () ->
              for i = 1 to n - 1 do
                match Trace_cache.lookup cache0 ~prev:g.(i - 1) ~cur:g.(i) with
                | Some _ -> incr h
                | None -> ()
              done))
    in
    hits := !h;
    lookup_ns := (float dt /. float (n - 1)) :: !lookup_ns
  done;
  (* Session against solo runs of the same members, each member capped
     at about [sess_blocks] blocks through its instruction budget. *)
  let sess_blocks = 65536 in
  let budgets =
    List.map
      (fun (_, s, size) ->
        let x = Hashtbl.find expected (s.prog, size) in
        max 1 (int_of_float (float x.instrs *. Float.min 1.0 (float sess_blocks /. float x.blocks))))
      plan
  in
  let sess_ns = ref [] and cross = ref 0.0 and sround = ref 0 in
  let sess_deadline = budget 0.45 in
  while !sround < 3 || now_ns () < sess_deadline do
    let layouts = Hashtbl.create 4 in
    let layout_of s size =
      match Hashtbl.find_opt layouts s.prog with
      | Some l -> l
      | None ->
          let l = Layout.build (build_program s.prog size) in
          Hashtbl.add layouts s.prog l;
          l
    in
    let cfg = Option.get rung.cfg in
    let events () = if wl.subscribe then Some (counting_events ()) else None in
    let restore e =
      match Option.map (Engine.restore e) snapshot with
      | Some (Error err) -> attempt (fun fail -> fail ("restore: " ^ Persist.error_to_string err))
      | Some (Ok _) | None -> ()
    in
    let run_session () =
      attempt @@ fun _ ->
      let s = Session.create ~batch () in
      let ms =
        List.map2
          (fun (label, sp, size) budget ->
            let m =
              Session.add ~name:label ~config:cfg ?events:(events ()) ~max_instructions:budget s
                (layout_of sp size)
            in
            restore (Session.engine m);
            m)
          plan budgets
      in
      Gc.full_major ();
      let (), dt = timed (fun () -> Span.within Span.session (fun () -> Session.run s)) in
      let ents = List.fold_left (fun n m -> n + Engine.traces_entered (Session.engine m)) 0 ms in
      cross := ratio (Session.cross_entries s) ents;
      (dt, List.map Session.vm_result ms)
    in
    let run_solo () =
      attempt @@ fun _ ->
      let rs =
        List.map2
          (fun (_, sp, size) budget ->
            let en = Engine.create ~config:cfg ?events:(events ()) (layout_of sp size) in
            restore en;
            Gc.full_major ();
            let r, dt =
              timed (fun () ->
                  Span.within Span.solo (fun () -> Engine.drive ~max_instructions:budget en))
            in
            (dt, r.Engine.vm_result))
          plan budgets
      in
      (List.fold_left (fun n (dt, _) -> n + dt) 0 rs, List.map snd rs)
    in
    let (st, sr), (ot, orr) =
      if !sround mod 2 = 0 then
        let a = run_session () in
        (a, run_solo ())
      else
        let b = run_solo () in
        (run_session (), b)
    in
    List.iter2
      (fun (a : Interp.result) (b : Interp.result) ->
        if a.instructions <> b.instructions || a.block_dispatches <> b.block_dispatches
           || ret_string a.outcome <> ret_string b.outcome
        then attempt (fun fail -> fail "session member differs from its solo run"))
      sr orr;
    let blocks = List.fold_left (fun n (r : Interp.result) -> n + r.block_dispatches) 0 sr in
    sess_ns := (float (st - ot) /. float blocks) :: !sess_ns;
    incr sround
  done;
  (* The ladder: every rung runs the first [ladder_blocks] blocks of the
     workload, rungs interleaved round by round, start rotated. *)
  let ladder_blocks = 131072 in
  let rungs = ladder wl in
  let k = Array.length rungs in
  let ns = Array.make k [] and words = Array.make k [] in
  let rounds = ref 0 in
  while !rounds < 5 || now_ns () < budget 1.0 do
    let instrs = Array.make k (-1) in
    for j = 0 to k - 1 do
      let r = (j + !rounds) mod k in
      attempt @@ fun fail ->
      Span.within Span.rung @@ fun () ->
      let members, _ = setup plan rungs.(r) ~snapshot ~fail in
      Gc.full_major ();
      let mw0 = Gc.minor_words () in
      let t0 = now_ns () in
      let blocks = drive members ~limit:ladder_blocks ~on_batch:span_batch in
      let t1 = now_ns () in
      let mw1 = Gc.minor_words () in
      ns.(r) <- (float (t1 - t0) /. float blocks) :: ns.(r);
      words.(r) <- ((mw1 -. mw0) /. float blocks) :: words.(r);
      instrs.(r) <-
        Array.fold_left (fun n m -> n + (Interp.materialize m.handle).Interp.m_instructions) 0 members
    done;
    Array.iter
      (fun i -> if i <> instrs.(0) then attempt (fun fail -> fail "ladder rungs disagree on the VM stream"))
      instrs;
    incr rounds
  done;
  let elapsed_s = float (now_ns () - t_start) /. 1e9 in
  (* Report. *)
  Printf.printf "workload %s, traced run of %.1f s: %d ladder rounds of %d blocks\n" wl.wname
    elapsed_s !rounds ladder_blocks;
  let col r = Array.of_list (List.rev ns.(r)) and wcol r = Array.of_list (List.rev words.(r)) in
  let delta c r = Array.map2 ( -. ) (c r) (c ladder_base.(r)) in
  let layer r = if r = 0 then col 0 else delta col r in
  let wlayer r = if r = 0 then wcol 0 else delta wcol r in
  Printf.printf "ladder (ns/block per rung, median): %s\n"
    (String.concat " "
       (Array.to_list (Array.mapi (fun r x -> Printf.sprintf "%s=%.1f" x.rname (median (col r))) rungs)));
  for r = 0 to k - 1 do
    (* "trace" -> "trace.ns_per_block"; "obs.events" -> "obs.events_ns_per_block" *)
    let name = rungs.(r).rname in
    let prefix = if String.contains name '.' then name ^ "_" else name ^ "." in
    report (prefix ^ "ns_per_block") "ns" (layer r);
    report (prefix ^ "minor_words_per_block") "words" (wlayer r)
  done;
  report "table7.profile_over_plain" "x" (Array.map2 ( /. ) (col 2) (col 0));
  report "table7.trace_over_plain" "x" (Array.map2 ( /. ) (col 3) (col 0));
  (* the rung that runs the workload's own configuration *)
  let own = if wl.subscribe then 6 else 5 in
  report "share.outside_vm_frac" "frac" (Array.map2 (fun v d -> 1.0 -. (v /. d)) (col 0) (col own));
  report "profiler.replay_ns_per_hook" "ns" (Array.of_list !hook_ns);
  report "trace.replay_ns_per_lookup" "ns" (Array.of_list !lookup_ns);
  report "persist.snapshot_ms" "ms" (Array.of_list !snap_ms);
  report "persist.restore_ms" "ms" (Array.of_list !rest_ms);
  report "session.ns_per_block" "ns" (Array.of_list !sess_ns);
  report "setup.program_ms" "ms" (Array.of_list !prog_ms);
  report "setup.layout_ms" "ms" (Array.of_list !lay_ms);
  report "setup.engine_ms" "ms" (Array.of_list !eng_ms);
  let on = Array.of_list !on_bps and off = Array.of_list !off_bps in
  let m_on = median on and m_off = median off in
  Printf.printf "  tracing: untraced %.0f blocks/s (n %d), traced %.0f blocks/s (n %d)\n" m_off
    (Array.length off) m_on (Array.length on);
  metric "tracing.overhead_frac" ((m_off /. m_on) -. 1.0) "frac";
  let count name v unit =
    Printf.printf "  %-36s %g (%s)\n" name v unit;
    metric name v unit
  in
  count "profiler.hooks_per_kblock" (1000.0 *. ratio (c.esum (fun e -> Profiler.dispatches (Engine.profiler e))) e.blocks) "count";
  count "profiler.signals" (float (c.esum (fun e -> Profiler.signals (Engine.profiler e)))) "count";
  count "trace.lookup_hit_frac" (ratio !hits (n - 1)) "frac";
  count "trace.coverage" (ratio (c.ssum (fun s -> s.Stats.completed_instrs + s.Stats.partial_instrs)) (c.ssum (fun s -> s.Stats.instructions))) "frac";
  count "trace.completion_rate" (ratio (c.ssum (fun s -> s.Stats.traces_completed)) c.entries) "frac";
  count "trace.avg_len" (ratio (c.ssum (fun s -> s.Stats.static_blocks)) (c.ssum (fun s -> s.Stats.static_traces))) "blocks";
  count "trace.blocks_inside_frac" (ratio (c.ssum (fun s -> s.Stats.completed_blocks + s.Stats.partial_blocks)) e.blocks) "frac";
  count "trace.entries_per_kblock" (1000.0 *. ratio c.entries e.blocks) "count";
  count "trace.chained_frac" (ratio (c.ssum (fun s -> s.Stats.chained_entries)) c.entries) "frac";
  count "builder.traces_constructed" (float (c.ssum (fun s -> s.Stats.traces_constructed))) "count";
  count "cache.evictions" (float (c.csum Trace_cache.n_evicted)) "count";
  count "cache.live_traces" (float (c.csum Trace_cache.n_live)) "count";
  count "cache.footprint_bytes" (float (c.csum Trace_cache.footprint_bytes)) "bytes";
  count "microir.ops_per_position" (ratio (tc.esum Engine.mi_ops) (tc.esum Engine.mi_positions)) "ops";
  count "microir.compiled_entry_frac" (ratio (tc.esum Engine.compiled_entries) tc.entries) "frac";
  count "persist.snapshot_bytes" (float !snap_bytes) "bytes";
  count "session.cross_entry_frac" !cross "frac";
  Printf.printf "  events seen by subscribers: %d\n" !events_seen;
  Span.on := false;
  let self = Span.self_times () in
  Printf.printf "  self time by span (ms):";
  List.iter (fun (nm, s) -> Printf.printf " %s=%.1f" nm (float s /. 1e6)) self;
  print_newline ();
  List.iter (fun (nm, s) -> metric ("self_ms." ^ nm) (float s /. 1e6) "ms") self

(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let expected = ref "perfbench/expected.tsv" and spans_out = ref "" in
  let gen = ref false and variant = ref Normal in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME hot-dispatch | vm-warm | bounded-session");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--expected", Arg.Set_string expected, "FILE expected outputs");
      ("--spans-out", Arg.Set_string spans_out, "FILE where the traced run writes its spans");
      ("--gen-expected", Arg.Set gen, " print the expected-output table and exit");
      ( "--variant",
        Arg.Symbol
          ( [ "normal"; "debug_checks"; "attribution"; "subscriber" ],
            fun s ->
              variant :=
                match s with
                | "debug_checks" -> Debug_checks
                | "attribution" -> Attribution
                | "subscriber" -> Subscriber
                | _ -> Normal ),
        " a configuration known to be slower (sensitivity self-test)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !gen then gen_expected ()
  else
    let wl =
      match List.find_opt (fun w -> w.wname = !workload) workloads with
      | Some w -> w
      | None ->
          prerr_endline ("unknown workload: " ^ !workload);
          exit 2
    in
    let expected = load_expected !expected in
    let plan = plan wl !seed in
    Printf.printf "seed %d: %s\n" !seed
      (String.concat ", " (List.map (fun (l, _, size) -> Printf.sprintf "%s@%d" l size) plan));
    if !trace = 0 then untraced ~expected ~seconds:!seconds ~variant:!variant wl plan
    else begin
      traced ~expected ~seconds:!seconds wl plan;
      if !spans_out <> "" then Span.write !spans_out
    end;
    List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (List.rev out.messages);
    print_result ();
    if out.failed > 0 then exit 1
