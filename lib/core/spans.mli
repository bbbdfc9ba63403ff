(** Causal spans over the engine's dispatch clock, in a bounded ring
    buffer.

    A span covers an engine activity — a trace build, a heal sweep, a
    quarantine episode, a session member turn — between two dispatch-tick
    timestamps.  Parent links come from the stack of currently-open
    spans, so nesting is causal (the heal sweep that runs at a
    trace-build boundary is the build's child).

    The recorder is bounded: it keeps the last [capacity] spans by id
    and overwrites older ones ({!dropped} counts the overwrites), so the
    hot path never allocates unboundedly.  {!find} validates the stored
    id, so a parent link to an evicted span resolves to [None] rather
    than to whichever span reused its slot — wraparound can lose
    ancestors but never fabricates them. *)

type t

type kind = Trace_build | Heal_sweep | Quarantine | Member_turn

val kind_to_string : kind -> string
(** Stable lowercase tag, used as the Chrome trace category. *)

type span = {
  id : int;  (** dense, increasing from 0 *)
  parent : int;  (** parent span id; [-1] for a root span *)
  kind : kind;
  label : string;
  start_time : int;  (** dispatch tick at begin *)
  start_seq : int;
      (** position on the global begin/end event clock — orders events
          that share a dispatch tick *)
  mutable end_time : int;  (** dispatch tick at end; [-1] while open *)
  mutable end_seq : int;  (** [-1] while open *)
}

val create : ?capacity:int -> unit -> t
(** Ring capacity in spans (default [4096]).
    @raise Invalid_argument if [capacity < 2]. *)

val capacity : t -> int

val begin_span : t -> kind:kind -> label:string -> now:int -> int
(** Open a span at dispatch tick [now], parented under the innermost
    open span; returns its id for {!end_span}. *)

val end_span : t -> int -> now:int -> unit
(** Close the span.  No-op on an already-closed or evicted id (beyond
    removing it from the open stack). *)

val emit :
  t -> kind:kind -> label:string -> start_time:int -> end_time:int -> int
(** Record a span whose extent is known up front (e.g. a quarantine
    episode ending at its backoff expiry).  Recorded closed — it never
    joins the open stack — but parented under the innermost open span. *)

val end_all : t -> now:int -> unit
(** Close every open span (outermost last); call before exporting. *)

val find : t -> int -> span option
(** The span with this id, if still in the ring. *)

val to_list : t -> span list
(** Spans still in the ring, in id (begin) order. *)

val iter : t -> (span -> unit) -> unit

val recorded : t -> int
(** Total spans ever begun (ids handed out). *)

val dropped : t -> int
(** Spans overwritten by wraparound. *)

val n_open : t -> int

val current : t -> int
(** Id of the innermost open span, or [-1] when none is open — the
    span the decision ledger attributes a decision to. *)

val set_on_close : t -> (span -> unit) -> unit
(** Install a hook fired once per span closure ({!end_span} on an open
    span, or a pre-closed {!emit}) — the flight recorder's span
    intake.  At most one hook; installing again replaces it. *)
