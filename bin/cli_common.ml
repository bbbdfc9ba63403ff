(* Shared plumbing for repro_cli's subcommands — the paper's run procedure
   (pick a workload and a configuration, run it, read the results off the
   dispatch stream) in one place: workload lookup, layout construction,
   configuration validation, file I/O, the reconciliation report, and the
   cmdliner arguments every engine-driving subcommand shares. *)

open Cmdliner

let workload name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (try: %s)\n" name
        (String.concat ", " (Workloads.Registry.names ()));
      exit 2

(* The optional positional WORKLOAD of the sweeping subcommands: [None]
   means every registered workload. *)
let workloads = function
  | Some name -> [ workload name ]
  | None -> Workloads.Registry.all

(* Config.make validates; turn a bad --threshold/--delay/--snapshot-period
   into a clean CLI error rather than an uncaught exception. *)
let config_or_die f =
  try f () with
  | Invalid_argument msg ->
      Printf.eprintf "invalid configuration: %s\n" msg;
      exit 2

let program w ~size =
  match size with
  | Some s -> w.Workloads.Workload.build ~size:s
  | None -> Workloads.Workload.build_default w

let layout w ~size =
  let program = program w ~size in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

(* The one engine configuration builder of the CLI: every parameter left
   out keeps its Config default, debug checks follow --self-heal unless
   given, and fault-spec parse errors and out-of-range parameters both
   die cleanly. *)
let engine_config ?snapshot_period ?obs_spans ?obs_attribution ?prune_guards
    ?osr ?tier ?fault_spec ?fault_seed ?(self_heal = false)
    ?(debug_checks = self_heal) ~threshold ~delay () =
  config_or_die (fun () ->
      (* the engine parses the spec at create; surface a bad one here *)
      Option.iter
        (fun spec -> ignore (Tracegen.Faults.create ~seed:0 spec))
        fault_spec;
      Tracegen.Config.make ~threshold ~start_state_delay:delay ?fault_spec
        ?fault_seed ~self_heal ~debug_checks ?osr ?tier ?snapshot_period
        ?obs_spans ?obs_attribution ?prune_guards ())

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg ->
    Printf.eprintf "cannot read %s: %s\n" path msg;
    exit 2

let write_file path data =
  try
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)
  with Sys_error msg ->
    Printf.eprintf "cannot write %s: %s\n" path msg;
    exit 2

(* Print one "# ok:" / "# MISMATCH:" line per reconciliation check on
   stderr; [source] names what the checked side counted ("timeline",
   "report").  True iff every check agreed. *)
let report_checks ~source (checks : Harness.Oracle.check list) =
  List.fold_left
    (fun ok (c : Harness.Oracle.check) ->
      if Harness.Oracle.check_ok c then begin
        Printf.eprintf "# ok: %s (%d)\n" c.Harness.Oracle.name
          c.Harness.Oracle.got;
        ok
      end
      else begin
        Printf.eprintf "# MISMATCH: %s (%s %d, stats %d)\n"
          c.Harness.Oracle.name source c.Harness.Oracle.got
          c.Harness.Oracle.want;
        false
      end)
    true checks

(* A reconciled replay: run [layout] over a fresh event stream tallied by
   the oracle ([watch] subscribes anything else before the run), let
   [narrate] print what the subcommand shows and return its own extra
   checks, then hold the tally to the end-of-run statistics and the
   ledger.  Exit 1 on any mismatch. *)
let reconcile ?(watch = ignore) ~config layout narrate =
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  watch events;
  let result = Tracegen.Engine.run ~config ~events layout in
  let checks =
    Harness.Oracle.run_checks tally ~engine:result.Tracegen.Engine.engine
      result.Tracegen.Engine.run_stats
  in
  let extra = narrate events tally result in
  if not (report_checks ~source:"timeline" (checks @ extra)) then exit 1

(* shared argument definitions *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

(* The optional WORKLOAD of a sweeping subcommand, with its own help. *)
let workloads_arg ~doc =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)

let size_arg =
  Arg.(value & opt (some int) None & info [ "size" ] ~docv:"N"
         ~doc:"Workload size (default: the workload's test size).")

let threshold_arg =
  Arg.(value & opt float 0.97 & info [ "threshold" ] ~docv:"P"
         ~doc:"Trace completion threshold in (0,1].")

let delay_arg =
  Arg.(value & opt int 64 & info [ "delay" ] ~docv:"D"
         ~doc:"Start state delay (paper: 1, 64 or 4096).")

let scale_arg =
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"S"
         ~doc:"Scale factor on workload bench sizes (1.0 = paper-scale runs).")

let fault_spec_arg =
  Arg.(value & opt string "" & info [ "fault-spec" ] ~docv:"SPEC"
         ~doc:"Fault schedule DSL (kind@prob, kind!tick, budget=K; empty = \
               no injection).  See 'chaos --catalogue' for kinds.")

let fault_seed_arg =
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N"
         ~doc:"PRNG seed for the fault schedule.")

let prune_guards_arg =
  Arg.(value & flag & info [ "prune-guards" ]
         ~doc:"Derive guard-implication proofs at trace installation and \
               elide the proven positions from guard accounting (see \
               'prove').")

let self_heal_arg =
  Arg.(value & flag & info [ "self-heal" ]
         ~doc:"Enable quarantine, node repair and the degradation ladder \
               (also turns on the invariant sweeps that drive them).")

let osr_arg =
  Arg.(value & flag & info [ "osr" ]
         ~doc:"Arm on-stack replacement: guard failures deoptimize \
               mid-trace back to block dispatch, and hot loops are \
               promoted into self-chaining traces mid-iteration.")

let tier_arg =
  Arg.(value & flag & info [ "tier" ]
         ~doc:"Arm the compiled micro-IR tier: hot traces are lowered to \
               a register micro-IR with fused superinstructions and \
               dispatched from the compiled tier (results stay \
               bit-identical; see 'backends --tier').")

(* The flags of one replayed run: the workload and the paper's
   (threshold, start-state delay) operating point, plus the fault and
   self-healing knobs. *)
type replay = {
  name : string;
  size : int option;
  threshold : float;
  delay : int;
  fault_spec : string;
  fault_seed : int;
  self_heal : bool;
  osr : bool;
  tier : bool;
  prune_guards : bool;
}

(* The replay flags as one term.  [osr] also offers --osr and --tier,
   [prune_guards] offers --prune-guards; an unoffered flag reads false. *)
let replay_term ?(osr = false) ?(prune_guards = false) () =
  let offered on arg = if on then arg else Term.const false in
  Term.(
    const
      (fun name size threshold delay fault_spec fault_seed self_heal osr tier
           prune_guards ->
        {
          name;
          size;
          threshold;
          delay;
          fault_spec;
          fault_seed;
          self_heal;
          osr;
          tier;
          prune_guards;
        })
    $ workload_arg $ size_arg $ threshold_arg $ delay_arg $ fault_spec_arg
    $ fault_seed_arg $ self_heal_arg $ offered osr osr_arg
    $ offered osr tier_arg
    $ offered prune_guards prune_guards_arg)

(* The layout and validated configuration of a replay, with the
   subcommand's own observability extras. *)
let replay ?snapshot_period ?obs_spans r =
  let layout = layout (workload r.name) ~size:r.size in
  let config =
    engine_config ?snapshot_period ?obs_spans ~threshold:r.threshold
      ~delay:r.delay ~fault_spec:r.fault_spec ~fault_seed:r.fault_seed
      ~self_heal:r.self_heal ~osr:r.osr ~tier:r.tier
      ~prune_guards:r.prune_guards ()
  in
  (layout, config)
