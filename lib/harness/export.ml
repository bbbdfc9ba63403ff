module Stats = Tracegen.Stats

(* Machine-readable results for experiment runs and sweeps.  The JSON
   machinery and the per-record JSONL/Chrome writers live in [Codec]
   (the single encode/decode module); what remains here is the
   experiment-level exporters. *)

(* One run's statistics: every raw count plus every derived value, in
   Stats.fields order — one key per field of Stats.t and Stats.derived. *)
let stats_json ?(extra = []) (s : Stats.t) : Codec.json =
  Codec.J_obj
    (extra
    @ List.map
        (fun (name, v) ->
          ( name,
            match v with
            | Stats.Int i -> Codec.J_int i
            | Stats.Float f -> Codec.J_float f ))
        (Stats.fields s))

let run_json (r : Experiment.run) : Codec.json =
  let k = r.Experiment.key in
  stats_json
    ~extra:
      [
        ("schema_version", Codec.J_int Codec.schema_version);
        ("workload", Codec.J_string k.Experiment.workload);
        ("size", Codec.J_int k.Experiment.size);
        ("delay", Codec.J_int k.Experiment.delay);
        ("threshold", Codec.J_float k.Experiment.threshold);
        ("checksum", Codec.J_int r.Experiment.result_value);
      ]
    r.Experiment.stats

(* One grid point: workload [w] at its scaled bench size. *)
let execute ~scale w ~delay ~threshold =
  Experiment.execute
    {
      Experiment.workload = w.Workloads.Workload.name;
      size = Experiment.size_for ~scale w;
      delay;
      threshold;
      build_traces = true;
    }

(* The full threshold x delay grid as JSON lines (one run per line). *)
let sweep_jsonl ?(scale = 1.0) () : string =
  let buf = Buffer.create 4096 in
  let line run =
    Buffer.add_string buf (Codec.to_string (run_json run));
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun w ->
      List.iter
        (fun threshold -> line (execute ~scale w ~delay:64 ~threshold))
        Experiment.thresholds;
      List.iter
        (fun delay -> line (execute ~scale w ~delay ~threshold:0.97))
        Experiment.delays)
    (Experiment.bench_workloads ());
  Buffer.contents buf

(* CSV of the threshold sweep: one row per (workload, threshold). *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let sweep_csv ?(scale = 1.0) () : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "workload,threshold,delay,instructions,avg_trace_length,\
     coverage_completed,coverage_total,completion_rate,\
     dispatches_per_signal,trace_event_interval,signals,traces_constructed\n";
  List.iter
    (fun w ->
      List.iter
        (fun threshold ->
          let s = (execute ~scale w ~delay:64 ~threshold).Experiment.stats in
          Buffer.add_string buf
            (Printf.sprintf "%s,%.2f,%d,%d,%.3f,%.4f,%.4f,%.5f,%.1f,%.1f,%d,%d\n"
               (csv_escape w.Workloads.Workload.name)
               threshold 64 s.Stats.instructions (Stats.avg_trace_length s)
               (Stats.coverage_completed s) (Stats.coverage_total s)
               (Stats.completion_rate s)
               (Stats.dispatches_per_signal s)
               (Stats.trace_event_interval s)
               s.Stats.signals s.Stats.traces_constructed))
        Experiment.thresholds)
    (Experiment.bench_workloads ());
  Buffer.contents buf
