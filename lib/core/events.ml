(* The typed event stream.

   A stream is a list of subscribers kept in subscription order plus a
   logical clock (the engine's dispatch index).  Emission is synchronous;
   the disabled stream (no subscribers) is a no-op, and emission sites
   guard payload construction behind [enabled] so a silent run allocates
   nothing. *)

type evict_reason = Capacity | Pressure | Quarantine | Footprint

let evict_reason_to_string = function
  | Capacity -> "capacity"
  | Pressure -> "pressure"
  | Quarantine -> "quarantine"
  | Footprint -> "footprint"

type payload =
  | Signal_raised of {
      x : Cfg.Layout.gid;
      y : Cfg.Layout.gid;
      old_state : State.t;
      new_state : State.t;
      best_changed : bool;
    }
  | Trace_constructed of {
      trace_id : int;
      first : Cfg.Layout.gid;
      n_blocks : int;
      n_instrs : int;
      prob : float;
      reused : bool;
    }
  | Trace_replaced of {
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      trace_id : int;
    }
  | Trace_entered of { trace_id : int; chained : bool }
  | Side_exit of {
      trace_id : int;
      at_block : int;
      matched_blocks : int;
      matched_instrs : int;
    }
  | Trace_completed of { trace_id : int; n_blocks : int; n_instrs : int }
  | Decay_pass of { decays : int }
  | Phase_snapshot of Metrics.snapshot
  | Invariant_violation of {
      code : string;
      severity : string;
      message : string;
    }
  | Fault_injected of { code : string; detail : string }
  | Trace_quarantined of {
      trace_id : int;
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      code : string;
      attempts : int;
      until : int;
    }
  | Trace_evicted of {
      trace_id : int;
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      n_live : int;
      reason : evict_reason;
      footprint : int;
      heat : int;
      stamp : int;
    }
  | Mode_degraded of { from_level : Health.level; to_level : Health.level }
  | Mode_recovered of { from_level : Health.level; to_level : Health.level }
  | Cache_restored of {
      traces : int;
      cache_blocks : int;
      bcg_nodes : int;
      bcg_edges : int;
    }
  | Snapshot_rejected of { reason : string }
  | Guards_pruned of { trace_id : int; pruned : int; guards : int }
  | Deopt_entered of {
      trace_id : int;
      at_block : int; (* trace position of the failed/abandoned guard *)
      resume_block : int; (* gid block dispatch resumes at; -1 unknown *)
      residue_blocks : int; (* trace positions abandoned past at_block *)
      reason : string; (* "guard-failure" | "guard-flip" | "condemned" *)
    }
  | Osr_promoted of {
      trace_id : int;
      header : Cfg.Layout.gid;
      latch : Cfg.Layout.gid;
      hotness : int;
    }
  | Trace_compiled of {
      trace_id : int;
      ops : int; (* micro-ops in the lowered body *)
      fused : int; (* superinstructions formed *)
      src_instrs : int; (* source bytecode instructions lowered *)
      heat : int; (* cache heat that crossed compile_after *)
      compile_after : int;
      budget : int;
      n_compiled : int; (* compiled traces, this one included *)
    }
  | Tier_demoted of {
      trace_id : int;
      uses : int; (* cache heat at demotion — the losing bid *)
      winner_heat : int; (* heat of the candidate that took the slot *)
    }

type event = { time : int; payload : payload }

type subscription = int

type t = {
  mutable subs : (subscription * (event -> unit)) list;
      (* in subscription order *)
  mutable next_sub : subscription;
  mutable now : int;
  mutable emitted : int;
  mutable tap : (event -> unit) option;
      (* out-of-band observer (the recorder/ledger intake): sees every event
         but does not count as a subscriber — [emitted] and
         [n_subscribers] are unaffected, so a tapped-but-unsubscribed
         stream still reports itself quiet to user code *)
}

let create () = { subs = []; next_sub = 0; now = 0; emitted = 0; tap = None }

let enabled t = t.subs <> [] || t.tap <> None

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.subs <- t.subs @ [ (id, f) ];
  id

let unsubscribe t id = t.subs <- List.filter (fun (i, _) -> i <> id) t.subs

let n_subscribers t = List.length t.subs

let set_tap t f = t.tap <- Some f

let set_now t n = t.now <- n

let now t = t.now

let emit t payload =
  match (t.subs, t.tap) with
  | [], None -> ()
  | subs, tap ->
      let ev = { time = t.now; payload } in
      (match tap with Some f -> f ev | None -> ());
      (match subs with
      | [] -> ()
      | subs ->
          t.emitted <- t.emitted + 1;
          List.iter (fun (_, f) -> f ev) subs)

let emitted t = t.emitted

let kind = function
  | Signal_raised _ -> "signal_raised"
  | Trace_constructed _ -> "trace_constructed"
  | Trace_replaced _ -> "trace_replaced"
  | Trace_entered _ -> "trace_entered"
  | Side_exit _ -> "side_exit"
  | Trace_completed _ -> "trace_completed"
  | Decay_pass _ -> "decay_pass"
  | Phase_snapshot _ -> "phase_snapshot"
  | Invariant_violation _ -> "invariant_violation"
  | Fault_injected _ -> "fault_injected"
  | Trace_quarantined _ -> "trace_quarantined"
  | Trace_evicted _ -> "trace_evicted"
  | Mode_degraded _ -> "mode_degraded"
  | Mode_recovered _ -> "mode_recovered"
  | Cache_restored _ -> "cache_restored"
  | Snapshot_rejected _ -> "snapshot_rejected"
  | Guards_pruned _ -> "guards_pruned"
  | Deopt_entered _ -> "deopt_entered"
  | Osr_promoted _ -> "osr_promoted"
  | Trace_compiled _ -> "trace_compiled"
  | Tier_demoted _ -> "tier_demoted"

(* The decisions: the events a trace-cache policy is made of (builds,
   installs, replacements, guard pruning, quarantines, evictions, tier
   moves, OSR promotions and deopts).  The decision ledger retains
   exactly these. *)
let is_decision = function
  | Trace_constructed _ | Trace_replaced _ | Guards_pruned _
  | Trace_quarantined _ | Trace_evicted _ | Trace_compiled _ | Tier_demoted _
  | Osr_promoted _ | Deopt_entered _ ->
      true
  | Signal_raised _ | Trace_entered _ | Side_exit _ | Trace_completed _
  | Decay_pass _ | Phase_snapshot _ | Invariant_violation _
  | Fault_injected _ | Mode_degraded _ | Mode_recovered _ | Cache_restored _
  | Snapshot_rejected _ ->
      false
