(** Machine-readable results: JSON for single runs, JSON-lines and CSV
    for the parameter sweeps.

    The JSON value type, writer/parser pair, version registry and every
    per-record JSONL/Chrome serializer live in {!Codec} (the single
    encode/decode module); this module holds the experiment-level
    export: {!stats_json}, {!run_json} and the sweep writers. *)

val stats_json :
  ?extra:(string * Codec.json) list -> Tracegen.Stats.t -> Codec.json
(** Every raw count plus every derived value, as one flat object with
    one key per field of [Stats.t] and of [Stats.derived]
    ([Stats.fields]), after the [extra] keys. *)

val run_json : Experiment.run -> Codec.json
(** {!stats_json} with the run's key (workload, size, parameters) and
    checksum prepended. *)

val sweep_jsonl : ?scale:float -> unit -> string
(** The threshold and delay grids, one JSON object per line. *)

val sweep_csv : ?scale:float -> unit -> string
(** The threshold sweep as CSV with a header row. *)
