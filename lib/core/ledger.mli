(** Decision ledger: the retained subsequence of the engine's event
    stream made of its decision events ({!Events.is_decision}) — trace
    constructions, replacements, guard prunes, quarantines, evictions,
    tier compiles and demotions, OSR promotions and deopts.  Each
    decision is emitted once, as an {!Events.payload}; the ledger keeps
    that event together with the span it happened under.
    [Harness.Oracle] checks its per-kind totals against the stream. *)

type record = {
  seq : int;  (** position in the ledger *)
  span : int;  (** innermost open span at emission, or -1 *)
  event : Events.event;  (** the decision; [event.time] is its tick *)
}

type t

val create : unit -> t

val note : t -> span:int -> Events.event -> unit
(** Intake: keep [event] iff its kind is a decision.  A non-decision
    event is dropped without allocating. *)

val length : t -> int
val to_list : t -> record list

val trace_of : Events.payload -> int
(** The trace a decision payload names, or -1. *)

val for_trace : t -> int -> record list
(** The records whose payload names trace [id]. *)

val for_block : t -> int -> record list
(** The records whose payload names block [b] (as [first], [head],
    [header] or [latch]), plus every record of a trace those records
    name. *)

val totals : t -> (string * int) list
(** Record count per event kind, sorted by kind. *)
