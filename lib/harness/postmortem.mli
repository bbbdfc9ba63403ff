(** Post-mortem dump plumbing.

    [Tracegen.Flightrec] performs no I/O; this module is the harness
    half that serializes the surviving ring window through {!Codec}
    when a trigger fires, and pretty-prints a dump back for humans
    ([repro_cli postmortem <file>]). *)

val dump_filename : Tracegen.Flightrec.dump_reason -> string
(** [flightrec_<reason>.jsonl]. *)

val write :
  reason:Tracegen.Flightrec.dump_reason ->
  path:string ->
  Tracegen.Flightrec.t ->
  unit
(** Serialize the recorder's surviving window to [path] (header line
    plus entries, via {!Codec.postmortem_jsonl}). *)

val arm :
  ?dir:string ->
  ?on_dump:(Tracegen.Flightrec.dump_reason -> string -> unit) ->
  Tracegen.Engine.t ->
  unit
(** Install the file sink on the engine's flight recorder (no-op when
    the recorder is disabled).  Dumps land in [dir] (default ".") as
    one file per reason, latest dump winning; [on_dump] observes each
    written (reason, path). *)

val payload_fields : Tracegen.Events.payload -> string
(** An event payload's fields as space-separated [key=value] text — the
    rendering a postmortem ["event"] line uses after the kind (also
    [repro_cli explain]'s). *)

val describe_json : Codec.json -> (string, string) result
(** One parsed dump line as a human-readable description. *)

val describe_dump : string -> (string list, string) result
(** Parse and describe a whole dump (JSONL contents).  Returns the
    rendered lines, or the first parse/shape error with its line
    number. *)
