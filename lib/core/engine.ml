module Layout = Cfg.Layout
module Interp = Vm.Interp

(* The complete system: the VM's block-dispatch stream drives the profiler;
   profiler signals drive trace reconstruction; and the trace cache overlays
   trace dispatch onto the stream.

   The engine is a thin shell over the Backend layer: it owns one
   Backend.ctx (the dispatch state every strategy shares, including the
   live counter block ctx.stats that accessors, gauges and [stats] read)
   and selects a dispatch backend per observed block from the Health
   ladder —

     Full_tracing  + build_traces -> Backend_trace
     Full_tracing  (no traces)    -> Backend_profile
     Profiling_only               -> Backend_profile
     Interp_only                  -> Backend_interp

   so walking the degradation ladder IS switching backends.  A backend
   can also be pinned at creation (tests, the `repro_cli backends`
   inspection command), in which case the ladder still runs its
   accounting but never changes the dispatch strategy.

   Dispatch accounting mirrors the modified SableVM:

   - a block dispatched outside any trace executes the profiler hook and
     counts as one block dispatch;
   - a dispatch that enters a trace executes the hook once and counts as
     one *trace* dispatch; the blocks the trace then executes internally
     are inlined — no dispatch, no hook;
   - when execution diverges from the trace (side exit) or the trace
     completes, the profiler context is resynchronized to the last two
     executed blocks and normal dispatching resumes.

   Because every strategy observes the same stream and tracing is a pure
   overlay, the VM's results are bit-identical under any backend, any
   ladder schedule and any fault schedule. *)

type backend_kind = Interp | Profile | Trace | Microir

let backend_kind_name = function
  | Interp -> Backend_interp.name
  | Profile -> Backend_profile.name
  | Trace -> Backend_trace.name
  | Microir -> Backend_microir.name

let backend_kind_of_string = function
  | "interp" -> Some Interp
  | "profile" -> Some Profile
  | "trace" -> Some Trace
  | "microir" -> Some Microir
  | _ -> None

let implementation : backend_kind -> (module Backend.S) = function
  | Interp -> (module Backend_interp)
  | Profile -> (module Backend_profile)
  | Trace -> (module Backend_trace)
  | Microir -> (module Backend_microir)

let backends = [ Interp; Profile; Trace; Microir ]

(* The ladder-to-backend mapping.  Note build_traces only matters at the
   top level: the cache is only ever consulted by Backend_trace /
   Backend_microir.  The compiled tier rides the top rung only — any
   degradation drops it with the rest of trace dispatch. *)
let select config (level : Health.level) : backend_kind =
  match level with
  | Health.Interp_only -> Interp
  | Health.Profiling_only -> Profile
  | Health.Full_tracing ->
      if not (Config.build_traces config) then Profile
      else if Config.tier_enabled config then Microir
      else Trace

type t = {
  ctx : Backend.ctx;
  ledger : Ledger.t option; (* None = decision ledger off *)
  pinned : bool; (* backend forced at creation: never re-selected *)
  mutable kind : backend_kind;
  mutable kind_level : Health.level; (* level [kind] was selected from *)
  mutable backend_switches : int; (* strategy changes over the run *)
  mutable snapshots_rejected : int; (* warm-start loads refused *)
}

(* Expose the accounting through the registry as polled gauges: nothing
   on the dispatch path, evaluated only when a snapshot is taken. *)
let register_gauges (m : Metrics.t) (t : t) =
  let e = t.ctx in
  let c = e.Backend.stats in
  Metrics.gauge m "block_dispatches" (fun () -> c.Stats.block_dispatches);
  Metrics.gauge m "trace_dispatches" (fun () -> c.Stats.trace_dispatches);
  Metrics.gauge m "traces_entered" (fun () -> c.Stats.traces_entered);
  Metrics.gauge m "traces_completed" (fun () -> c.Stats.traces_completed);
  Metrics.gauge m "completed_blocks" (fun () -> c.Stats.completed_blocks);
  Metrics.gauge m "partial_blocks" (fun () -> c.Stats.partial_blocks);
  Metrics.gauge m "completed_instrs" (fun () -> c.Stats.completed_instrs);
  Metrics.gauge m "partial_instrs" (fun () -> c.Stats.partial_instrs);
  Metrics.gauge m "traces_constructed" (fun () -> c.Stats.traces_constructed);
  Metrics.gauge m "builder_reuses" (fun () -> c.Stats.builder_reuses);
  Metrics.gauge m "chained_entries" (fun () -> c.Stats.chained_entries);
  Metrics.gauge m "guards_checked" (fun () -> c.Stats.guards_checked);
  Metrics.gauge m "guards_elided" (fun () -> c.Stats.guards_elided);
  Metrics.gauge m "guards_pruned" (fun () -> c.Stats.guards_pruned);
  Metrics.gauge m "signals" (fun () -> Profiler.signals e.Backend.profiler);
  Metrics.gauge m "ic_predictions" (fun () ->
      Profiler.predictions e.Backend.profiler);
  Metrics.gauge m "bcg_nodes" (fun () ->
      Bcg.n_nodes (Profiler.bcg e.Backend.profiler));
  Metrics.gauge m "bcg_edges" (fun () ->
      Bcg.n_edges (Profiler.bcg e.Backend.profiler));
  Metrics.gauge m "traces_live" (fun () -> Trace_cache.n_live e.Backend.cache);
  Metrics.gauge m "traces_replaced" (fun () ->
      Trace_cache.n_replaced e.Backend.cache);
  Metrics.gauge m "invariant_violations" (fun () ->
      c.Stats.invariant_violations);
  Metrics.gauge m "live_blocks" (fun () ->
      Trace_cache.live_blocks e.Backend.cache);
  Metrics.gauge m "traces_evicted" (fun () ->
      Trace_cache.n_evicted e.Backend.cache);
  Metrics.gauge m "traces_quarantined" (fun () ->
      Trace_cache.n_quarantines e.Backend.cache);
  Metrics.gauge m "quarantine_active" (fun () ->
      Trace_cache.n_quarantine_active e.Backend.cache);
  Metrics.gauge m "traces_blacklisted" (fun () ->
      Trace_cache.n_blacklisted e.Backend.cache);
  Metrics.gauge m "failed_installs" (fun () ->
      Trace_cache.n_failed_installs e.Backend.cache);
  Metrics.gauge m "faults_injected" (fun () -> Faults.injected e.Backend.faults);
  Metrics.gauge m "healed_nodes" (fun () -> c.Stats.healed_nodes);
  Metrics.gauge m "health_level" (fun () ->
      Health.level_rank (Health.level e.Backend.health));
  Metrics.gauge m "health_demotions" (fun () ->
      Health.demotions e.Backend.health);
  Metrics.gauge m "health_promotions" (fun () ->
      Health.promotions e.Backend.health);
  Metrics.gauge m "skipped_dispatches" (fun () ->
      Profiler.skipped e.Backend.profiler);
  Metrics.gauge m "backend_switches" (fun () -> t.backend_switches);
  Metrics.gauge m "cross_session_installs" (fun () ->
      Trace_cache.n_cross_installs e.Backend.cache);
  Metrics.gauge m "cross_session_entries" (fun () ->
      Trace_cache.n_cross_entries e.Backend.cache);
  Metrics.gauge m "traces_restored" (fun () ->
      Trace_cache.n_restored e.Backend.cache);
  Metrics.gauge m "snapshots_rejected" (fun () -> t.snapshots_rejected);
  Metrics.gauge m "cache_footprint_bytes" (fun () ->
      Trace_cache.footprint_bytes e.Backend.cache);
  Metrics.gauge m "pin_refusals" (fun () ->
      Trace_cache.n_pin_refusals e.Backend.cache);
  if Config.tier_enabled e.Backend.config then begin
    Metrics.gauge m "traces_compiled" (fun () -> c.Stats.traces_compiled);
    Metrics.gauge m "tier_demotions" (fun () -> c.Stats.tier_demotions);
    Metrics.gauge m "compiled_entries" (fun () -> c.Stats.compiled_entries);
    Metrics.gauge m "compiled_live" (fun () ->
        Trace_cache.n_compiled e.Backend.cache);
    Metrics.gauge m "demote_refusals" (fun () ->
        Trace_cache.n_demote_refusals e.Backend.cache);
    Metrics.gauge m "mi_ops" (fun () -> c.Stats.mi_ops);
    Metrics.gauge m "mi_src_instrs" (fun () -> c.Stats.mi_src_instrs)
  end;
  (match e.Backend.osr with
  | Some osr ->
      Metrics.gauge m "deopts" (fun () -> Osr.deopts osr);
      Metrics.gauge m "deopt_residue_blocks" (fun () ->
          Osr.residue_blocks osr);
      Metrics.gauge m "osr_promotions" (fun () -> Osr.promotions osr);
      Metrics.gauge m "osr_entries" (fun () -> Osr.entries osr)
  | None -> ());
  (match e.Backend.spans with
  | Some s ->
      Metrics.gauge m "spans_recorded" (fun () -> Spans.recorded s);
      Metrics.gauge m "spans_dropped" (fun () -> Spans.dropped s)
  | None -> ());
  (match e.Backend.flightrec with
  | Some fr ->
      Metrics.gauge m "flightrec_recorded" (fun () -> Flightrec.recorded fr);
      Metrics.gauge m "flightrec_dumps" (fun () -> Flightrec.dumps fr)
  | None -> ());
  match t.ledger with
  | Some l -> Metrics.gauge m "ledger_records" (fun () -> Ledger.length l)
  | None -> ()

let create ?(config = Config.default) ?(events = Events.create ()) ?cache
    ?backend (layout : Layout.t) : t =
  Config.validate config;
  let cache =
    match cache with
    | Some c ->
        if Trace_cache.layout c != layout then
          invalid_arg "Engine.create: cache built over a different layout";
        c
    | None ->
        Trace_cache.create ~events
          ~max_traces:(Config.max_cache_traces config)
          ~max_blocks:(Config.max_cache_blocks config)
          ~eviction_policy:(Config.eviction_policy config)
          ~heal_max_rebuilds:(Config.heal_max_rebuilds config)
          ~heal_backoff:(Config.heal_backoff config)
          layout
  in
  (* parse the fault schedule here (not in Config.validate) so Config
     stays below Faults in the dependency order; a malformed spec still
     fails fast, at engine creation *)
  let faults =
    Faults.create ~seed:(Config.fault_seed config) (Config.fault_spec config)
  in
  let health =
    Health.create
      ~demote_after:(Config.heal_demote_after config)
      ~recover_after:(Config.heal_recover_after config)
  in
  let metrics = Metrics.create ~period:(Config.snapshot_period config) () in
  let spans =
    if Config.obs_spans config then
      Some (Spans.create ~capacity:(Config.span_buffer config) ())
    else None
  in
  let buckets = Config.hist_buckets config in
  let h_trace_len = Metrics.histogram metrics ~buckets "executed_trace_len" in
  let h_exit_distance =
    Metrics.histogram metrics ~buckets "completion_distance"
  in
  let h_build_len = Metrics.histogram metrics ~buckets "builder_path_len" in
  let h_backoff = Metrics.histogram metrics ~buckets "quarantine_backoff" in
  let h_deopt_residue = Metrics.histogram metrics ~buckets "deopt_residue" in
  let osr =
    if Config.osr_enabled config then
      Some (Osr.create ~promote_after:(Config.osr_promote_after config) layout)
    else None
  in
  (* The black box and the decision ledger share one intake: a tap on
     the event stream, out of band (it is not a subscriber: a run with
     an armed recorder or ledger still reports its stream quiet to user
     code).  The recorder keeps every event, the ledger the decisions,
     each stamped with the innermost open span.  The recorder also rides
     the span close hook when spans are on. *)
  let flightrec =
    let cap = Config.flightrec_capacity config in
    if cap > 0 then Some (Flightrec.create ~capacity:cap) else None
  in
  let ledger =
    if Config.ledger_enabled config then Some (Ledger.create ()) else None
  in
  (match (flightrec, ledger) with
  | None, None -> ()
  | _ ->
      Events.set_tap events (fun ev ->
          (match flightrec with
          | Some fr -> Flightrec.record_event fr ev
          | None -> ());
          match ledger with
          | Some l ->
              Ledger.note l
                ~span:(match spans with Some s -> Spans.current s | None -> -1)
                ev
          | None -> ()));
  (match (flightrec, spans) with
  | Some fr, Some s ->
      Spans.set_on_close s (fun (sp : Spans.span) ->
          Flightrec.record_span_closed fr ~time:sp.Spans.end_time
            ~id:sp.Spans.id ~parent:sp.Spans.parent
            ~kind:(Spans.kind_to_string sp.Spans.kind)
            ~label:sp.Spans.label ~start_time:sp.Spans.start_time)
  | _ -> ());
  (* The profiler's signal callback closes over the shared dispatch
     context; tie the knot with a forward reference. *)
  let context = ref None in
  let on_signal signal =
    match !context with
    | None -> ()
    | Some (e : Backend.ctx) ->
        (* every signal is a trace-construction boundary *)
        if Config.build_traces e.Backend.config then
          Backend.build e
            ~label:(fun () ->
              let n = signal.Bcg.s_node in
              Printf.sprintf "build N_%d,%d" n.Bcg.n_x n.Bcg.n_y)
            ~run:(fun ~on_path ->
              ( Trace_builder.on_signal ~events ~on_path e.Backend.config
                  e.Backend.cache signal,
                () ))
            ~settle:(fun _ () -> true)
  in
  let profiler =
    Profiler.create ~events config ~n_blocks:layout.Layout.n_blocks ~on_signal
  in
  let ctx =
    {
      Backend.config;
      layout;
      profiler;
      cache;
      events;
      metrics;
      health;
      faults;
      osr;
      spans;
      flightrec;
      attr_self =
        (if Config.obs_attribution config then
           Array.make layout.Layout.n_blocks 0
         else [||]);
      attr_inlined =
        (if Config.obs_attribution config then
           Array.make layout.Layout.n_blocks 0
         else [||]);
      h_trace_len;
      h_exit_distance;
      h_build_len;
      h_backoff;
      h_deopt_residue;
      active = None;
      active_lowered = None;
      active_pos = 0;
      matched_blocks = 0;
      matched_instrs = 0;
      prev = -1;
      prev2 = -1;
      stats = Stats.create ();
      just_completed = false;
      seen_decays = 0;
      in_debug_sweep = false;
    }
  in
  context := Some ctx;
  let kind, pinned =
    match backend with
    | Some k -> (k, true)
    | None -> (select config (Health.level health), false)
  in
  let t =
    {
      ctx;
      ledger;
      pinned;
      kind;
      kind_level = Health.level health;
      backend_switches = 0;
      snapshots_rejected = 0;
    }
  in
  register_gauges metrics t;
  let prev_values : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Metrics.on_snapshot metrics (fun snapshot ->
      if Events.enabled events then
        Events.emit events (Events.Phase_snapshot snapshot);
      (* the recorder keeps metric *deltas* between consecutive
         snapshots — what moved, not the whole registry *)
      match flightrec with
      | Some fr ->
          Array.iter
            (fun (name, value) ->
              let old =
                match Hashtbl.find_opt prev_values name with
                | Some v -> v
                | None -> 0
              in
              if value <> old then
                Flightrec.record_metric_delta fr ~time:snapshot.Metrics.at
                  ~name ~delta:(value - old) ~total:value;
              Hashtbl.replace prev_values name value)
            snapshot.Metrics.values
      | None -> ());
  t

(* accessors over the abstract engine *)
let config t = t.ctx.Backend.config

let layout t = t.ctx.Backend.layout

let profiler t = t.ctx.Backend.profiler

let cache t = t.ctx.Backend.cache

let events t = t.ctx.Backend.events

let metrics t = t.ctx.Backend.metrics

let active_trace t = t.ctx.Backend.active

let block_dispatches t = t.ctx.Backend.stats.Stats.block_dispatches

let trace_dispatches t = t.ctx.Backend.stats.Stats.trace_dispatches

let total_dispatches t = Backend.clock t.ctx

let traces_entered t = t.ctx.Backend.stats.Stats.traces_entered

let builder_reuses t = t.ctx.Backend.stats.Stats.builder_reuses

let invariant_violations t = t.ctx.Backend.stats.Stats.invariant_violations

let health t = t.ctx.Backend.health

let spans t = t.ctx.Backend.spans

let flightrec t = t.ctx.Backend.flightrec

let ledger t = t.ledger

let attr_self t = t.ctx.Backend.attr_self

let attr_inlined t = t.ctx.Backend.attr_inlined

let inflight_matched_blocks t =
  match t.ctx.Backend.active with
  | Some _ -> t.ctx.Backend.matched_blocks
  | None -> 0

let trace_len_hist t = t.ctx.Backend.h_trace_len

let exit_distance_hist t = t.ctx.Backend.h_exit_distance

let build_len_hist t = t.ctx.Backend.h_build_len

let backoff_hist t = t.ctx.Backend.h_backoff

let deopt_residue_hist t = t.ctx.Backend.h_deopt_residue

(* OSR accounting; all zero when Config.Osr is off. *)
let osr_count f t = match t.ctx.Backend.osr with Some o -> f o | None -> 0

let deopts = osr_count Osr.deopts

let osr_promotions = osr_count Osr.promotions

let osr_entries = osr_count Osr.entries

let osr_state_checks = osr_count Osr.state_checks

let osr_state_mismatches = osr_count Osr.state_mismatches

let pin_refusals t = Trace_cache.n_pin_refusals t.ctx.Backend.cache

(* compiled-tier accounting; all zero when Config.Tier is off *)
let compiled_entries t = t.ctx.Backend.stats.Stats.compiled_entries

let mi_positions t = t.ctx.Backend.stats.Stats.mi_positions

let mi_ops t = t.ctx.Backend.stats.Stats.mi_ops

let arm_guard_flip t ~pos = Faults.arm_flip t.ctx.Backend.faults ~pos

let debug_sweep t = Backend.run_debug_checks t.ctx

let attach t (handle : Interp.handle) =
  match t.ctx.Backend.osr with
  | Some osr ->
      Osr.set_materialize osr (fun () -> Some (Interp.materialize handle))
  | None -> ()

let backend_kind t = t.kind

let backend_name t = backend_kind_name t.kind

let backend_pinned t = t.pinned

let backend_switches t = t.backend_switches

(* The VM observer: re-select the backend if the ladder moved since the
   last dispatch (a mid-dispatch transition therefore takes effect at
   the next observed block, exactly like the old mode flags), then hand
   the block to the current strategy. *)
let on_block t (g : Layout.gid) =
  let ctx = t.ctx in
  if not t.pinned then begin
    let level = Health.level ctx.Backend.health in
    if level <> t.kind_level then begin
      t.kind_level <- level;
      let k = select ctx.Backend.config level in
      if k <> t.kind then begin
        t.kind <- k;
        t.backend_switches <- t.backend_switches + 1
      end
    end
  end;
  match t.kind with
  | Interp -> Backend_interp.on_block ctx g
  | Profile -> Backend_profile.on_block ctx g
  | Trace -> Backend_trace.on_block ctx g
  | Microir -> Backend_microir.on_block ctx g

(* End-of-run statistics: one copy of the live counter block, with the
   fields other modules own (VM, profiler, cache, OSR, health, faults)
   filled in.  The copy is a snapshot — driving the engine further does
   not change it. *)
let stats t ~(vm_result : Interp.result) ~wall_seconds : Stats.t =
  let ctx = t.ctx in
  let profiler = ctx.Backend.profiler and cache = ctx.Backend.cache in
  let health = ctx.Backend.health in
  let static_traces = ref 0 and static_blocks = ref 0 in
  Trace_cache.iter_all cache (fun tr ->
      if tr.Trace.completed > 0 then begin
        incr static_traces;
        static_blocks := !static_blocks + Trace.n_blocks tr
      end);
  {
    ctx.Backend.stats with
    Stats.instructions = vm_result.Interp.instructions;
    signals = Profiler.signals profiler;
    traces_replaced = Trace_cache.n_replaced cache;
    traces_live = Trace_cache.n_live cache;
    static_traces = !static_traces;
    static_blocks = !static_blocks;
    bcg_nodes = Bcg.n_nodes (Profiler.bcg profiler);
    bcg_edges = Bcg.n_edges (Profiler.bcg profiler);
    ic_predictions = Profiler.predictions profiler;
    faults_injected = Faults.injected ctx.Backend.faults;
    traces_quarantined = Trace_cache.n_quarantines cache;
    traces_evicted = Trace_cache.n_evicted cache;
    traces_blacklisted = Trace_cache.n_blacklisted cache;
    failed_installs = Trace_cache.n_failed_installs cache;
    health_demotions = Health.demotions health;
    health_promotions = Health.promotions health;
    final_health = Health.level_rank (Health.level health);
    deopts = deopts t;
    deopt_residue_blocks = osr_count Osr.residue_blocks t;
    osr_promotions = osr_promotions t;
    osr_entries = osr_entries t;
    wall_seconds;
  }

(* Warm starts: the engine-level snapshot is the Persist encoding of
   the profiler's BCG plus the live trace cache, and restoring is the
   only place the Cache_restored / Snapshot_rejected events are
   emitted, so every load attempt is visible on the timeline. *)

let snapshot t =
  let ctx = t.ctx in
  Persist.encode ~layout:ctx.Backend.layout
    {
      Persist.bcg_nodes = Bcg.snapshot (Profiler.bcg ctx.Backend.profiler);
      cache_entries = Trace_cache.snapshot ctx.Backend.cache;
    }

type restore_info = {
  restored_traces : int;
  restored_blocks : int;
  restored_bcg_nodes : int;
  restored_bcg_edges : int;
  recompiled_traces : int;
}

let snapshots_rejected t = t.snapshots_rejected

let restore t data : (restore_info, Persist.error) result =
  let ctx = t.ctx in
  match Persist.decode ~layout:ctx.Backend.layout data with
  | Error e ->
      t.snapshots_rejected <- t.snapshots_rejected + 1;
      if Events.enabled ctx.Backend.events then
        Events.emit ctx.Backend.events
          (Events.Snapshot_rejected { reason = Persist.error_to_string e });
      Backend.fr_trigger ctx Flightrec.Snapshot_rejected;
      Error e
  | Ok snap ->
      let bcg = Profiler.bcg ctx.Backend.profiler in
      Bcg.restore bcg snap.Persist.bcg_nodes;
      let traces =
        Trace_cache.restore
          ~promoted_below:(Config.threshold t.ctx.Backend.config)
          ctx.Backend.cache snap.Persist.cache_entries
      in
      (* the compiled tier is derived state: snapshots persist heat, not
         lowered bodies, so re-derive the compiled set from the restored
         use counts (Tier.recompile_restored is a no-op with the tier
         off) *)
      let recompiled =
        Tier.recompile_restored ctx.Backend.config ctx.Backend.layout
          ctx.Backend.cache ~events:ctx.Backend.events
      in
      let c = ctx.Backend.stats in
      c.Stats.traces_compiled <- c.Stats.traces_compiled + recompiled;
      let info =
        {
          restored_traces = traces;
          restored_blocks = Trace_cache.live_blocks ctx.Backend.cache;
          restored_bcg_nodes = Bcg.n_nodes bcg;
          restored_bcg_edges = Bcg.n_edges bcg;
          recompiled_traces = recompiled;
        }
      in
      if Events.enabled ctx.Backend.events then
        Events.emit ctx.Backend.events
          (Events.Cache_restored
             {
               traces;
               cache_blocks = info.restored_blocks;
               bcg_nodes = info.restored_bcg_nodes;
               bcg_edges = info.restored_bcg_edges;
             });
      Ok info

type run_result = {
  engine : t;
  vm_result : Interp.result;
  run_stats : Stats.t;
}

(* Drive an already-created engine over its program — the warm-start
   flow creates, restores, then drives. *)
let drive ?max_instructions t : run_result =
  let layout = t.ctx.Backend.layout in
  let t0 = Unix.gettimeofday () in
  (* drive through a handle (not Interp.run) so the OSR deopt checks can
     materialize the live continuation; bit-identical either way *)
  let handle =
    Interp.start ?max_instructions layout ~on_block:(fun g -> on_block t g)
  in
  attach t handle;
  let vm_result = Interp.finish handle in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  { engine = t; vm_result; run_stats = stats t ~vm_result ~wall_seconds }

(* Run a program under the full system. *)
let run ?(config = Config.default) ?events ?max_instructions ?backend
    (layout : Layout.t) : run_result =
  drive ?max_instructions (create ~config ?events ?backend layout)
