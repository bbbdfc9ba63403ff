(* Shared plumbing for repro_cli's subcommands: workload lookup, layout
   construction, configuration validation, and the cmdliner argument
   definitions every engine-driving subcommand repeats. *)

open Cmdliner

let find_workload name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %s (try: %s)\n" name
        (String.concat ", " (Workloads.Registry.names ()));
      exit 2

(* Config.make validates; turn a bad --threshold/--delay/--snapshot-period
   into a clean CLI error rather than an uncaught exception. *)
let config_or_die f =
  try f () with
  | Invalid_argument msg ->
      Printf.eprintf "invalid configuration: %s\n" msg;
      exit 2

let program_of w ~size =
  match size with
  | Some s -> w.Workloads.Workload.build ~size:s
  | None -> Workloads.Workload.build_default w

let layout_of w ~size =
  let program = program_of w ~size in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

(* The standard engine configuration of the run/events/session commands:
   fault-spec parse errors and out-of-range parameters both die cleanly. *)
let engine_config ?snapshot_period ?obs_spans ?obs_attribution ?prune_guards
    ?(osr = false) ?(tier = false) ~threshold ~delay ~fault_spec ~fault_seed
    ~self_heal () =
  config_or_die (fun () ->
      (* the engine parses the spec at create; surface a bad one here *)
      ignore (Tracegen.Faults.create ~seed:fault_seed fault_spec);
      Tracegen.Config.make ~threshold ~start_state_delay:delay ~fault_spec
        ~fault_seed ~self_heal ~debug_checks:self_heal ~osr ~tier
        ?snapshot_period ?obs_spans ?obs_attribution ?prune_guards ())

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

(* shared argument definitions *)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

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

(* Declarative subcommand table.  Each subcommand registers its name,
   one-line doc and term in one place; the main entry point builds the
   cmdliner group from the table.  Adding a subcommand is one [register]
   call — no edits to the group construction. *)
module Subcommand = struct
  type t = { name : string; doc : string; term : unit Term.t }

  let registry : t list ref = ref []

  let register ~name ~doc term =
    if List.exists (fun s -> s.name = name) !registry then
      invalid_arg ("duplicate subcommand " ^ name);
    registry := { name; doc; term } :: !registry

  (* in registration order — the order the file declares them *)
  let commands () =
    List.rev_map
      (fun s -> Cmd.v (Cmd.info s.name ~doc:s.doc) s.term)
      !registry
end
