(* The five dependent values of the evaluation (paper §5.2), plus the raw
   counts they derive from.

   The [mutable] fields are the counters the dispatch path advances: the
   engine owns one fresh record ([create]) as its live counter block, and
   Engine.stats copies it once, filling the immutable fields from the
   modules that own them (VM, profiler, cache, OSR, health, faults). *)

type t = {
  instructions : int; (* bytecodes executed (= Figure-1 dispatch count) *)
  mutable block_dispatches : int; (* dispatches outside traces (profiled) *)
  mutable trace_dispatches : int; (* trace entries (one hook each) *)
  mutable traces_entered : int;
  mutable traces_completed : int;
  mutable completed_blocks : int;
      (* sum over completions of the trace's block count *)
  mutable partial_blocks : int;
      (* blocks executed by partially executed traces *)
  mutable completed_instrs : int;
      (* instructions executed by completed traces *)
  mutable partial_instrs : int;
      (* instructions executed by partially executed traces *)
  signals : int;
  mutable traces_constructed : int;
  mutable builder_reuses : int;
      (* builder reconstructions satisfied by a cached trace *)
  traces_replaced : int;
  traces_live : int;
  (* static view over distinct traces that completed at least once *)
  static_traces : int;
  static_blocks : int;
  bcg_nodes : int;
  bcg_edges : int;
  ic_predictions : int; (* inline-cache hits in the profiler *)
  mutable chained_entries : int;
      (* trace entries directly following another trace's completion *)
  mutable guards_checked : int;
      (* trace-position guards actually compared against the executed
         block during dispatch *)
  mutable guards_elided : int;
      (* guard positions skipped because Trace_prover proved them
         implied (Trace.pruned verdicts) *)
  mutable guards_pruned : int;
      (* static pruning verdicts derived at install time, summed over
         constructed traces *)
  (* resilience: the self-healing / chaos counters.  All zero on a
     healthy run without fault injection. *)
  mutable invariant_violations : int;
      (* findings of the debug_checks sweeps *)
  faults_injected : int; (* faults the injector actually applied *)
  traces_quarantined : int; (* condemnations (entries may repeat) *)
  traces_evicted : int; (* capacity / pressure evictions *)
  traces_blacklisted : int; (* entries quarantined permanently *)
  failed_installs : int; (* injected installation failures consumed *)
  mutable healed_nodes : int; (* BCG nodes repaired in place *)
  health_demotions : int;
  health_promotions : int;
  final_health : int; (* Health.level_rank at end of run: 0 = full *)
  (* on-stack replacement (Config.Osr).  All zero with OSR off. *)
  deopts : int; (* mid-trace deoptimizations taken *)
  deopt_residue_blocks : int;
      (* trace positions abandoned past the deopt points, summed *)
  osr_promotions : int; (* hot loops promoted mid-iteration *)
  osr_entries : int; (* promoted traces entered on their armed back-edge *)
  (* the compiled micro-IR tier (Config.Tier).  All zero with tier off. *)
  mutable traces_compiled : int; (* promotions to the compiled tier *)
  mutable tier_demotions : int; (* compiled slots lost under compile_budget *)
  mutable compiled_entries : int;
      (* trace entries that ran on the compiled tier *)
  mutable mi_positions : int;
      (* trace positions followed on the compiled tier *)
  mutable mi_ops : int; (* micro-ops those positions dispatched *)
  mutable mi_fused : int; (* superinstructions among them *)
  mutable mi_src_instrs : int;
      (* source bytecode instructions the same positions would have
         dispatched under Backend_trace — the baseline of the
         dispatch-cost reduction *)
  wall_seconds : float;
}

let zero =
  {
    instructions = 0;
    block_dispatches = 0;
    trace_dispatches = 0;
    traces_entered = 0;
    traces_completed = 0;
    completed_blocks = 0;
    partial_blocks = 0;
    completed_instrs = 0;
    partial_instrs = 0;
    signals = 0;
    traces_constructed = 0;
    builder_reuses = 0;
    traces_replaced = 0;
    traces_live = 0;
    static_traces = 0;
    static_blocks = 0;
    bcg_nodes = 0;
    bcg_edges = 0;
    ic_predictions = 0;
    chained_entries = 0;
    guards_checked = 0;
    guards_elided = 0;
    guards_pruned = 0;
    invariant_violations = 0;
    faults_injected = 0;
    traces_quarantined = 0;
    traces_evicted = 0;
    traces_blacklisted = 0;
    failed_installs = 0;
    healed_nodes = 0;
    health_demotions = 0;
    health_promotions = 0;
    final_health = 0;
    deopts = 0;
    deopt_residue_blocks = 0;
    osr_promotions = 0;
    osr_entries = 0;
    traces_compiled = 0;
    tier_demotions = 0;
    compiled_entries = 0;
    mi_positions = 0;
    mi_ops = 0;
    mi_fused = 0;
    mi_src_instrs = 0;
    wall_seconds = 0.0;
  }

let create () = { zero with instructions = 0 }

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* All derived values of the evaluation, computed in one place so the
   tables, the pretty-printer and the exporters cannot drift apart.
   Field names deliberately shadow the projection functions below (value
   and field namespaces are distinct). *)
type derived = {
  total_dispatches : int;
      (* blocks dispatched outside traces plus one dispatch per trace
         entry — the trace-dispatch model's count *)
  trace_events : int; (* signals + traces constructed *)
  avg_trace_length : float;
      (* paper: completed static blocks / distinct completed traces *)
  dynamic_trace_length : float; (* completion-event-weighted length *)
  coverage_completed : float;
  coverage_total : float;
      (* coverage counting partial executions too (the paper's 90.7% vs.
         87.1% distinction) *)
  completion_rate : float;
  dispatches_per_signal : float;
  trace_event_interval : float;
  linking_rate : float;
      (* trace entries chaining directly from another trace's
         completion: the dispatch-level analogue of Dynamo linking *)
  dispatch_reduction : float;
      (* block-model dispatches each trace-model dispatch replaces *)
  quarantine_rate : float;
      (* condemnations per constructed trace: how much of the built
         population chaos claimed *)
  eviction_rate : float; (* capacity evictions per constructed trace *)
  guard_elision_rate : float;
      (* fraction of in-trace guard positions elided by proof:
         elided / (checked + elided) *)
  guards_per_kinstr : float;
      (* guards actually checked per 1000 executed instructions — the
         dynamic cost pruning attacks *)
  deopt_rate : float;
      (* OSR deoptimizations per trace entry: how often a followed trace
         was abandoned mid-flight instead of completing or side-exiting
         at its natural end *)
  deopt_residue : float;
      (* average trace positions abandoned past the deopt point — the
         work a non-OSR side exit would have re-dispatched *)
  mi_ops_per_position : float;
      (* micro-ops dispatched per followed trace position on the
         compiled tier *)
  mi_src_per_position : float;
      (* source instructions per position — what Backend_trace would
         have dispatched for the same positions *)
  mi_dispatch_reduction : float;
      (* 1 - mi_ops/mi_src_instrs: the fraction of per-position dispatch
         work the lowered body removes (folding, DCE, fusion) *)
  mi_fused_share : float;
      (* fraction of dispatched micro-ops that are superinstructions *)
}

let derived t : derived =
  let total_dispatches = t.block_dispatches + t.trace_dispatches in
  let trace_events = t.signals + t.traces_constructed in
  let block_model =
    t.block_dispatches + t.completed_blocks + t.partial_blocks
  in
  {
    total_dispatches;
    trace_events;
    avg_trace_length = ratio t.static_blocks t.static_traces;
    dynamic_trace_length = ratio t.completed_blocks t.traces_completed;
    coverage_completed = ratio t.completed_instrs t.instructions;
    coverage_total =
      ratio (t.completed_instrs + t.partial_instrs) t.instructions;
    completion_rate = ratio t.traces_completed t.traces_entered;
    dispatches_per_signal = ratio total_dispatches t.signals;
    trace_event_interval = ratio total_dispatches trace_events;
    linking_rate = ratio t.chained_entries t.traces_entered;
    dispatch_reduction =
      (if total_dispatches = 0 then 1.0
       else ratio block_model total_dispatches);
    quarantine_rate = ratio t.traces_quarantined t.traces_constructed;
    eviction_rate = ratio t.traces_evicted t.traces_constructed;
    guard_elision_rate = ratio t.guards_elided (t.guards_checked + t.guards_elided);
    guards_per_kinstr = 1000.0 *. ratio t.guards_checked t.instructions;
    deopt_rate = ratio t.deopts t.traces_entered;
    deopt_residue = ratio t.deopt_residue_blocks t.deopts;
    mi_ops_per_position = ratio t.mi_ops t.mi_positions;
    mi_src_per_position = ratio t.mi_src_instrs t.mi_positions;
    mi_dispatch_reduction =
      (if t.mi_src_instrs = 0 then 0.0
       else 1.0 -. ratio t.mi_ops t.mi_src_instrs);
    mi_fused_share = ratio t.mi_fused t.mi_ops;
  }

(* Every raw count, then every derived value, under its field name — the
   one list the flat exporters (Harness.Export.stats_json) are built from.
   Both patterns are exhaustive and the warning for a missing field is an
   error here, so a new field that is not listed fails the build. *)
type field = Int of int | Float of float

let[@warning "+9"] fields (s : t) : (string * field) list =
  let {
    instructions; block_dispatches; trace_dispatches; traces_entered;
    traces_completed; completed_blocks; partial_blocks; completed_instrs;
    partial_instrs; signals; traces_constructed; builder_reuses;
    traces_replaced; traces_live; static_traces; static_blocks; bcg_nodes;
    bcg_edges; ic_predictions; chained_entries; guards_checked;
    guards_elided; guards_pruned; invariant_violations; faults_injected;
    traces_quarantined; traces_evicted; traces_blacklisted; failed_installs;
    healed_nodes; health_demotions; health_promotions; final_health; deopts;
    deopt_residue_blocks; osr_promotions; osr_entries; traces_compiled;
    tier_demotions; compiled_entries; mi_positions; mi_ops; mi_fused;
    mi_src_instrs; wall_seconds;
  } =
    s
  in
  let {
    total_dispatches; trace_events; avg_trace_length; dynamic_trace_length;
    coverage_completed; coverage_total; completion_rate;
    dispatches_per_signal; trace_event_interval; linking_rate;
    dispatch_reduction; quarantine_rate; eviction_rate; guard_elision_rate;
    guards_per_kinstr; deopt_rate; deopt_residue; mi_ops_per_position;
    mi_src_per_position; mi_dispatch_reduction; mi_fused_share;
  } =
    derived s
  in
  [
    ("instructions", Int instructions);
    ("block_dispatches", Int block_dispatches);
    ("trace_dispatches", Int trace_dispatches);
    ("traces_entered", Int traces_entered);
    ("traces_completed", Int traces_completed);
    ("completed_blocks", Int completed_blocks);
    ("partial_blocks", Int partial_blocks);
    ("completed_instrs", Int completed_instrs);
    ("partial_instrs", Int partial_instrs);
    ("signals", Int signals);
    ("traces_constructed", Int traces_constructed);
    ("builder_reuses", Int builder_reuses);
    ("traces_replaced", Int traces_replaced);
    ("traces_live", Int traces_live);
    ("static_traces", Int static_traces);
    ("static_blocks", Int static_blocks);
    ("bcg_nodes", Int bcg_nodes);
    ("bcg_edges", Int bcg_edges);
    ("ic_predictions", Int ic_predictions);
    ("chained_entries", Int chained_entries);
    ("guards_checked", Int guards_checked);
    ("guards_elided", Int guards_elided);
    ("guards_pruned", Int guards_pruned);
    ("invariant_violations", Int invariant_violations);
    ("faults_injected", Int faults_injected);
    ("traces_quarantined", Int traces_quarantined);
    ("traces_evicted", Int traces_evicted);
    ("traces_blacklisted", Int traces_blacklisted);
    ("failed_installs", Int failed_installs);
    ("healed_nodes", Int healed_nodes);
    ("health_demotions", Int health_demotions);
    ("health_promotions", Int health_promotions);
    ("final_health", Int final_health);
    ("deopts", Int deopts);
    ("deopt_residue_blocks", Int deopt_residue_blocks);
    ("osr_promotions", Int osr_promotions);
    ("osr_entries", Int osr_entries);
    ("traces_compiled", Int traces_compiled);
    ("tier_demotions", Int tier_demotions);
    ("compiled_entries", Int compiled_entries);
    ("mi_positions", Int mi_positions);
    ("mi_ops", Int mi_ops);
    ("mi_fused", Int mi_fused);
    ("mi_src_instrs", Int mi_src_instrs);
    ("wall_seconds", Float wall_seconds);
    ("total_dispatches", Int total_dispatches);
    ("trace_events", Int trace_events);
    ("avg_trace_length", Float avg_trace_length);
    ("dynamic_trace_length", Float dynamic_trace_length);
    ("coverage_completed", Float coverage_completed);
    ("coverage_total", Float coverage_total);
    ("completion_rate", Float completion_rate);
    ("dispatches_per_signal", Float dispatches_per_signal);
    ("trace_event_interval", Float trace_event_interval);
    ("linking_rate", Float linking_rate);
    ("dispatch_reduction", Float dispatch_reduction);
    ("quarantine_rate", Float quarantine_rate);
    ("eviction_rate", Float eviction_rate);
    ("guard_elision_rate", Float guard_elision_rate);
    ("guards_per_kinstr", Float guards_per_kinstr);
    ("deopt_rate", Float deopt_rate);
    ("deopt_residue", Float deopt_residue);
    ("mi_ops_per_position", Float mi_ops_per_position);
    ("mi_src_per_position", Float mi_src_per_position);
    ("mi_dispatch_reduction", Float mi_dispatch_reduction);
    ("mi_fused_share", Float mi_fused_share);
  ]

(* Projections, kept for call sites that want a single value. *)
let total_dispatches t = (derived t).total_dispatches

let trace_events t = (derived t).trace_events

let avg_trace_length t = (derived t).avg_trace_length

let dynamic_trace_length t = (derived t).dynamic_trace_length

let coverage_completed t = (derived t).coverage_completed

let coverage_total t = (derived t).coverage_total

let completion_rate t = (derived t).completion_rate

let dispatches_per_signal t = (derived t).dispatches_per_signal

let trace_event_interval t = (derived t).trace_event_interval

let linking_rate t = (derived t).linking_rate

let dispatch_reduction t = (derived t).dispatch_reduction

let quarantine_rate t = (derived t).quarantine_rate

let eviction_rate t = (derived t).eviction_rate

let guard_elision_rate t = (derived t).guard_elision_rate

let guards_per_kinstr t = (derived t).guards_per_kinstr

let deopt_rate t = (derived t).deopt_rate

let pp ppf t =
  let d = derived t in
  Format.fprintf ppf
    "@[<v>instructions        %d@,\
     block dispatches    %d@,\
     trace dispatches    %d@,\
     entered/completed   %d/%d (%.2f%%)@,\
     avg trace length    %.2f blocks@,\
     coverage completed  %.1f%%@,\
     coverage total      %.1f%%@,\
     signals             %d@,\
     traces constructed  %d (replaced %d, live %d)@,\
     kdisp/signal        %.1f@,\
     kdisp/trace event   %.1f@,\
     linking rate        %.1f%%@,\
     bcg                 %d nodes, %d edges@]"
    t.instructions t.block_dispatches t.trace_dispatches t.traces_entered
    t.traces_completed
    (100.0 *. d.completion_rate)
    d.avg_trace_length
    (100.0 *. d.coverage_completed)
    (100.0 *. d.coverage_total)
    t.signals t.traces_constructed t.traces_replaced t.traces_live
    (d.dispatches_per_signal /. 1000.0)
    (d.trace_event_interval /. 1000.0)
    (100.0 *. d.linking_rate)
    t.bcg_nodes t.bcg_edges;
  (* guard accounting appears only once traces actually dispatched with
     guard counting on, so older renderings are unchanged *)
  if t.guards_checked + t.guards_elided > 0 then
    Format.fprintf ppf
      "@,\
       @[<v>guards checked      %d (%.2f/kinstr)@,\
       guards elided       %d (%.1f%% of positions, %d pruned statically)@]"
      t.guards_checked d.guards_per_kinstr t.guards_elided
      (100.0 *. d.guard_elision_rate)
      t.guards_pruned;
  (* OSR accounting appears only when on-stack replacement actually
     fired, so a run with OSR off renders unchanged *)
  if t.deopts > 0 || t.osr_promotions > 0 then
    Format.fprintf ppf
      "@,\
       @[<v>deopts              %d (%.2f%% of entries, avg residue %.1f blocks)@,\
       osr promotions      %d (%d armed entries taken)@]"
      t.deopts
      (100.0 *. d.deopt_rate)
      d.deopt_residue t.osr_promotions t.osr_entries;
  (* compiled-tier accounting appears only when the tier actually
     dispatched something, so a tier-off run renders unchanged *)
  if t.mi_positions > 0 || t.traces_compiled > 0 then
    Format.fprintf ppf
      "@,\
       @[<v>traces compiled     %d (%d demoted, %d compiled entries)@,\
       micro-IR dispatch   %.2f ops/position vs %.2f instrs \
       (%.1f%% reduction, %.1f%% fused)@]"
      t.traces_compiled t.tier_demotions t.compiled_entries
      d.mi_ops_per_position d.mi_src_per_position
      (100.0 *. d.mi_dispatch_reduction)
      (100.0 *. d.mi_fused_share);
  (* the resilience line only appears when something resilience-related
     happened, so a healthy run's rendering is unchanged *)
  if
    t.invariant_violations > 0 || t.faults_injected > 0
    || t.traces_quarantined > 0 || t.traces_evicted > 0
    || t.failed_installs > 0 || t.healed_nodes > 0 || t.health_demotions > 0
    || t.final_health > 0
  then
    Format.fprintf ppf
      "@,\
       @[<v>violations          %d (faults injected %d)@,\
       quarantined         %d (blacklisted %d, healed nodes %d)@,\
       evicted             %d (failed installs %d)@,\
       health              %d demotions, %d promotions, final level %d@]"
      t.invariant_violations t.faults_injected t.traces_quarantined
      t.traces_blacklisted t.healed_nodes t.traces_evicted t.failed_installs
      t.health_demotions t.health_promotions t.final_health
