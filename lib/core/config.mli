(** Parameters of the profiling and trace-generation algorithm (paper
    §5.2), grouped into layered sub-records mirroring the subsystems
    that consume them.

    The two parameters the paper sweeps are
    {!field:Profile.start_state_delay} (1 / 64 / 4096) and
    {!field:Profile.threshold} (1.00 … 0.95); the rest are the constants
    the paper fixes: a 256-dispatch decay period and 16-bit saturating
    counters.

    Consumers should project through the per-field accessor functions
    ([Config.threshold cfg] etc.) rather than spelling the nesting; the
    flat {!make} constructor is the only way most callers build one. *)

(** Knobs of the BCG profiler and trace builder (paper §5.2 proper). *)
module Profile : sig
  type t = {
    start_state_delay : int;
        (** Executions before a branch node leaves the newly-created
            state; filters rarely executed code.  Paper values: 1, 64,
            4096. *)
    threshold : float;
        (** Minimum expected trace completion probability, in (0, 1].
            Also the strong/weak correlation boundary.  Paper values:
            1.00, 0.99, 0.98, 0.97 (best), 0.95. *)
    decay_period : int;
        (** Node executions between periodic exponential decay passes
            (paper: 256). *)
    counter_max : int;
        (** Saturation value of the correlation counters (paper: 16-bit,
            65535). *)
    max_trace_blocks : int;  (** Defensive cap on trace length in blocks. *)
    min_trace_blocks : int;
        (** Traces shorter than this are not cached (a 1-block trace is
            a no-op). *)
    max_walk : int;  (** Cap on the maximum-likelihood walk length. *)
    max_backtrack : int;  (** Cap on entry-point backtracking depth. *)
    build_traces : bool;
        (** When [false] the engine profiles every dispatch but never
            enters traces — the configuration of the paper's Table VI
            overhead measurement. *)
  }

  val default : t

  val validate : t -> unit
end

(** Trace-cache capacity bounds and eviction policy. *)
module Cache : sig
  type eviction_policy =
    | Lru  (** condemn the least recently dispatched entry (default) *)
    | Footprint_aware
        (** condemn the entry with the worst estimated i-cache bytes per
            use (footprint/heat ratio, ties broken by recency) — keeps
            hot-but-large traces over cold-but-small ones *)

  val eviction_policy_to_string : eviction_policy -> string
  (** Stable lowercase tag: ["lru"] / ["footprint"]. *)

  val eviction_policy_of_string : string -> eviction_policy option
  (** Inverse of {!eviction_policy_to_string}; [None] on unknown tags. *)

  type t = {
    max_traces : int;
        (** Bound on live traces in the cache; [0] (default) =
            unbounded.  Exceeding it evicts a victim chosen by
            [eviction_policy], so memory pressure degrades hit rate
            instead of crashing. *)
    max_blocks : int;
        (** Bound on the total block count of live traces;
            [0] = unbounded. *)
    eviction_policy : eviction_policy;
  }

  val default : t

  val validate : t -> unit
end

(** Self-healing machinery and the degradation ladder. *)
module Heal : sig
  type t = {
    self_heal : bool;
        (** Validate traces at dispatch, quarantine any trace a TL2xx
            check or an injected fault touches, heal corrupted BCG
            nodes, and walk the [Health] degradation ladder
            (full tracing → profiling-only → pure interpretation) with
            recovery probes back up.  Off by default. *)
    max_rebuilds : int;
        (** Quarantines of one entry transition before it is permanently
            blacklisted (default 3). *)
    backoff : int;
        (** Node executions before a quarantined entry may be rebuilt;
            doubles on every further quarantine of the same entry
            (default 512). *)
    demote_after : int;
        (** Detections before dropping one health level (default 3). *)
    recover_after : int;
        (** Consecutive clean dispatches before climbing one health
            level back up (default 400). *)
  }

  val default : t

  val validate : t -> unit
end

(** Fault-injection schedule. *)
module Faults : sig
  type t = {
    spec : string;
        (** Fault-injection schedule (see [Faults.parse] for the DSL);
            [""] (default) disables injection.  The engine parses it at
            creation and raises [Invalid_argument] on a malformed
            spec. *)
    seed : int;  (** PRNG seed of the fault injector. *)
  }

  val default : t

  val validate : t -> unit
end

(** On-stack replacement (OSR): mid-trace deoptimization and mid-loop
    promotion.  Off by default — the engine then behaves exactly as
    before: a guard failure abandons the trace residue and restarts
    block dispatch from the trace head transition. *)
module Osr : sig
  type t = {
    enabled : bool;
        (** When on, a guard failure (or a mid-flight condemnation of
            the executing trace) {e deoptimizes}: the interpreter state
            is materialized at the failing block and block dispatch
            resumes there; and hot loop headers detected by the
            profiling strategy are {e promoted} into freshly built
            traces mid-iteration, entered on the very next back-edge.
            Off by default. *)
    promote_after : int;
        (** Outside-trace dispatches of one loop header before the
            mid-loop promotion fires (default 96 — past the profiler's
            default [start_state_delay], so the loop's BCG nodes are
            followable by the time the builder runs). *)
  }

  val default : t

  val validate : t -> unit
end

(** The compiled tier: register micro-IR lowering of hot traces.  Off by
    default — the engine then never lowers anything and the [Trace]
    backend's behaviour is unchanged. *)
module Tier : sig
  type t = {
    enabled : bool;
        (** When on, traces whose cache heat crosses [compile_after] are
            lowered to register micro-IR ([Microir]) and dispatched by
            [Backend_microir]'s specialized loop.  Results are
            bit-identical either way: the lowered body only changes what
            dispatch {e accounts}, never what executes.  Off by
            default. *)
    compile_after : int;
        (** Cache uses of one trace before the cost model compiles it —
            the attribution hot-report proxy: a trace entered this often
            dominates dispatch cost (default 32). *)
    compile_budget : int;
        (** Bound on simultaneously compiled traces; exceeding it
            demotes the coldest compiled trace, except pinned
            (currently executing) ones (default 64). *)
  }

  val default : t

  val validate : t -> unit
end

(** Deep-observability knobs: span recording and hot-path attribution.
    Both are off by default — the quiescent engine pays nothing for
    them. *)
module Obs : sig
  type t = {
    spans : bool;
        (** Record causal spans ([Spans]) around trace builds, heal
            sweeps, quarantine episodes and session member turns.  Off
            by default. *)
    attribution : bool;
        (** Keep per-BCG-block self/inlined dispatch attribution (one
            word per block per array) feeding the hot-report.  Off by
            default. *)
    span_buffer : int;
        (** Span ring capacity; older spans are overwritten (default
            4096). *)
    hist_buckets : int;
        (** Power-of-two buckets per engine histogram, in [[2, 62]]
            (default 16, covering observations up to [2^14]).  Engine
            histograms themselves are always on: recording is O(1). *)
    flightrec_capacity : int;
        (** Flight-recorder ring capacity in entries (default 512).
            The recorder is always on — O(1) per record, bounded
            retention — and dumps its window on invariant violations,
            chaos divergence, snapshot rejection or degradation to
            interp-only.  0 disarms it entirely. *)
    ledger : bool;
        (** Retain the run's decision events in the ledger
            ({!Ledger}).  Arming it enables the event stream, like the
            flight recorder.  On by default; the retention cost is
            proportional to those rare events, not to dispatch. *)
  }

  val default : t

  val validate : t -> unit
end

type t = {
  profile : Profile.t;
  cache : Cache.t;
  heal : Heal.t;
  faults : Faults.t;
  obs : Obs.t;
  osr : Osr.t;
  tier : Tier.t;
  snapshot_period : int;
      (** Dispatches between periodic {!Metrics} snapshots; [0]
          (default) disables the snapshot series. *)
  debug_checks : bool;
      (** Run the trace/BCG invariant checks ([Invariants]) at
          trace-construction and decay boundaries, emitting an
          [Invariant_violation] event per finding.  Off by default: the
          checks walk every node and trace, which costs real time on hot
          paths. *)
  prune_guards : bool;
      (** Run guard-implication pruning ([Trace_prover]) on every newly
          installed trace: a forward fact environment (constant/interval
          facts plus earlier guard outcomes) proves some guards implied,
          and the dispatch loop elides them — they are counted as
          [guards_elided] instead of [guards_checked].  Off by
          default. *)
}

val default : t
(** The paper's preferred operating point: delay 64, threshold 0.97,
    decay 256, 16-bit counters. *)

val make :
  ?start_state_delay:int ->
  ?threshold:float ->
  ?decay_period:int ->
  ?counter_max:int ->
  ?max_trace_blocks:int ->
  ?min_trace_blocks:int ->
  ?max_walk:int ->
  ?max_backtrack:int ->
  ?build_traces:bool ->
  ?snapshot_period:int ->
  ?debug_checks:bool ->
  ?prune_guards:bool ->
  ?max_cache_traces:int ->
  ?max_cache_blocks:int ->
  ?eviction_policy:Cache.eviction_policy ->
  ?self_heal:bool ->
  ?heal_max_rebuilds:int ->
  ?heal_backoff:int ->
  ?heal_demote_after:int ->
  ?heal_recover_after:int ->
  ?fault_spec:string ->
  ?fault_seed:int ->
  ?osr:bool ->
  ?osr_promote_after:int ->
  ?tier:bool ->
  ?tier_compile_after:int ->
  ?tier_compile_budget:int ->
  ?obs_spans:bool ->
  ?obs_attribution:bool ->
  ?span_buffer:int ->
  ?hist_buckets:int ->
  ?flightrec_capacity:int ->
  ?ledger:bool ->
  unit ->
  t
(** Flat labelled constructor over {!default}; every omitted parameter
    keeps its default.  Unlike a record literal, the result is
    {!validate}d on construction.
    @raise Invalid_argument on out-of-range parameters. *)

val validate : t -> unit
(** @raise Invalid_argument on out-of-range parameters. *)

(** {2 Leaf accessors}

    One per knob; consumers use these instead of nested projections. *)

val start_state_delay : t -> int

val threshold : t -> float

val decay_period : t -> int

val counter_max : t -> int

val max_trace_blocks : t -> int

val min_trace_blocks : t -> int

val max_walk : t -> int

val max_backtrack : t -> int

val build_traces : t -> bool

val max_cache_traces : t -> int

val max_cache_blocks : t -> int

val eviction_policy : t -> Cache.eviction_policy

val self_heal : t -> bool

val heal_max_rebuilds : t -> int

val heal_backoff : t -> int

val heal_demote_after : t -> int

val heal_recover_after : t -> int

val fault_spec : t -> string

val fault_seed : t -> int

val osr_enabled : t -> bool

val osr_promote_after : t -> int

val tier_enabled : t -> bool

val tier_compile_after : t -> int

val tier_compile_budget : t -> int

val obs_spans : t -> bool

val obs_attribution : t -> bool

val span_buffer : t -> int

val hist_buckets : t -> int

val flightrec_capacity : t -> int

val ledger_enabled : t -> bool

val snapshot_period : t -> int

val debug_checks : t -> bool

val prune_guards : t -> bool

(** {2 Functional updates} *)

val with_threshold : t -> float -> t

val with_delay : t -> int -> t

val with_profile : t -> Profile.t -> t
(** Replace a whole layer; the result is re-{!validate}d.
    @raise Invalid_argument if the new layer is out of range. *)

val with_cache : t -> Cache.t -> t

val with_heal : t -> Heal.t -> t

val with_faults : t -> Faults.t -> t

val with_obs : t -> Obs.t -> t

val with_osr : t -> Osr.t -> t

val with_tier : t -> Tier.t -> t

val pp : Format.formatter -> t -> unit
