(** The events-vs-stats reconciliation oracle.

    The event stream and the end-of-run statistics are two views of the
    same execution, and the decision ledger is the stream's decision
    events, retained.  This module owns the exact agreements between
    them, so [repro_cli events] and [explain], the chaos harness and the
    tests all check one list instead of private copies that can
    drift. *)

type check = { name : string; got : int; want : int }

val check_ok : check -> bool
val all_ok : check list -> bool
val failures : check list -> check list

(** {2 Event tally} *)

type tally
(** Per-kind event counts plus the refinements the checks need
    (new-vs-reused constructions, summed guard prunes, the
    eviction-reason split, the decision kinds seen). *)

val create_tally : unit -> tally

val observe : tally -> Tracegen.Events.payload -> unit
(** Count one delivered payload (for callers with their own
    subscription). *)

val attach : Tracegen.Events.t -> tally
(** Subscribe a fresh tally to the stream — every subsequent event is
    counted.  Attach before the run starts. *)

val count : tally -> string -> int
(** Occurrences of one event kind (by {!Tracegen.Events.kind} tag). *)

val n_kinds : tally -> int

(** {2 The reconciliations} *)

val event_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** The event-timeline agreements: every counted kind against its
    statistics counter, including the side-exit balance
    (entered − completed − in-flight), the summed [guards_pruned]
    payloads and the eviction-reason split. *)

val ledger_fold : tally -> Tracegen.Ledger.t -> check
(** The ledger against the stream it retains: for every decision kind
    ({!Tracegen.Events.is_decision}) seen by the tally or the ledger,
    the ledger's total equals the tally's count.  [got] counts the
    agreeing kinds, [want] the kinds seen. *)

val run_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** {!event_checks} plus, when the engine kept a ledger, {!ledger_fold}
    — the full reconciliation for a finished solo-engine run. *)
