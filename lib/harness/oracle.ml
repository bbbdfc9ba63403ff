(* The events-vs-stats reconciliation oracle.

   The event stream and the end-of-run statistics are two views of the
   same execution, and the decision ledger is the stream's decision
   events, retained; this module owns the exact agreements between them
   so every consumer (`repro_cli events` and `explain`, the chaos
   harness, the tests) checks the same list rather than each keeping a
   private copy that can drift. *)

module Events = Tracegen.Events
module Stats = Tracegen.Stats
module Engine = Tracegen.Engine
module Ledger = Tracegen.Ledger

type check = { name : string; got : int; want : int }

let check_ok c = c.got = c.want

let all_ok checks = List.for_all check_ok checks

let failures checks = List.filter (fun c -> not (check_ok c)) checks

(* ------------------------------------------------------------------ *)
(* Event tally                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-kind counts plus the refinements the checks need beyond raw
   kinds: new-vs-reused constructions, the summed guard prunes, the
   eviction-reason split (quarantine removals count under
   traces_quarantined, the other reasons under traces_evicted) and
   which kinds seen were decisions (the ledger fold's domain). *)
type tally = {
  counts : (string, int) Hashtbl.t;
  decision_kinds : (string, unit) Hashtbl.t;
  mutable constructed_new : int;
  mutable pruned_sum : int;
  mutable evicted_counted : int;
  mutable evicted_quarantine : int;
}

let create_tally () =
  {
    counts = Hashtbl.create 16;
    decision_kinds = Hashtbl.create 16;
    constructed_new = 0;
    pruned_sum = 0;
    evicted_counted = 0;
    evicted_quarantine = 0;
  }

let count t k = try Hashtbl.find t.counts k with Not_found -> 0

let n_kinds t = Hashtbl.length t.counts

let observe t (payload : Events.payload) =
  let k = Events.kind payload in
  Hashtbl.replace t.counts k (1 + count t k);
  if Events.is_decision payload then Hashtbl.replace t.decision_kinds k ();
  match payload with
  | Events.Trace_constructed { reused = false; _ } ->
      t.constructed_new <- t.constructed_new + 1
  | Events.Guards_pruned { pruned; _ } -> t.pruned_sum <- t.pruned_sum + pruned
  (* exhaustive over the shared eviction-reason variant *)
  | Events.Trace_evicted { reason = Events.Quarantine; _ } ->
      t.evicted_quarantine <- t.evicted_quarantine + 1
  | Events.Trace_evicted
      { reason = Events.Capacity | Events.Pressure | Events.Footprint; _ } ->
      t.evicted_counted <- t.evicted_counted + 1
  | _ -> ()

let attach events =
  let t = create_tally () in
  let _sub =
    Events.subscribe events (fun e -> observe t e.Events.payload)
  in
  t

(* ------------------------------------------------------------------ *)
(* Events vs stats                                                     *)
(* ------------------------------------------------------------------ *)

let event_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  [
    {
      name = "signal_raised = signals";
      got = count t "signal_raised";
      want = s.Stats.signals;
    };
    {
      name = "trace_constructed (new) = traces_constructed";
      got = t.constructed_new;
      want = s.Stats.traces_constructed;
    };
    {
      name = "trace_constructed (reused) = builder reuses";
      got = count t "trace_constructed" - t.constructed_new;
      want = Engine.builder_reuses engine;
    };
    {
      name = "guards_pruned (sum of pruned) = guards_pruned";
      got = t.pruned_sum;
      want = s.Stats.guards_pruned;
    };
    {
      name = "trace_entered = traces_entered";
      got = count t "trace_entered";
      want = s.Stats.traces_entered;
    };
    {
      name = "trace_completed = traces_completed";
      got = count t "trace_completed";
      want = s.Stats.traces_completed;
    };
    {
      name = "side_exit = entered - completed - in-flight";
      got = count t "side_exit";
      want = s.Stats.traces_entered - s.Stats.traces_completed - in_flight;
    };
    {
      name = "trace_replaced = traces_replaced";
      got = count t "trace_replaced";
      want = s.Stats.traces_replaced;
    };
    {
      name = "fault_injected = faults_injected";
      got = count t "fault_injected";
      want = s.Stats.faults_injected;
    };
    {
      name = "trace_quarantined = traces_quarantined";
      got = count t "trace_quarantined";
      want = s.Stats.traces_quarantined;
    };
    (* quarantine removals also emit trace_evicted (reason "quarantine")
       but count under traces_quarantined, not traces_evicted *)
    {
      name = "trace_evicted (capacity+pressure) = traces_evicted";
      got = t.evicted_counted;
      want = s.Stats.traces_evicted;
    };
    {
      name = "trace_evicted (all reasons) = timeline total";
      got = t.evicted_counted + t.evicted_quarantine;
      want = count t "trace_evicted";
    };
    {
      name = "mode_degraded = health_demotions";
      got = count t "mode_degraded";
      want = s.Stats.health_demotions;
    };
    {
      name = "mode_recovered = health_promotions";
      got = count t "mode_recovered";
      want = s.Stats.health_promotions;
    };
    {
      name = "deopt_entered = deopts";
      got = count t "deopt_entered";
      want = s.Stats.deopts;
    };
    {
      name = "osr_promoted = osr_promotions";
      got = count t "osr_promoted";
      want = s.Stats.osr_promotions;
    };
    {
      name = "trace_compiled = traces_compiled";
      got = count t "trace_compiled";
      want = s.Stats.traces_compiled;
    };
    {
      name = "tier_demoted = tier_demotions";
      got = count t "tier_demoted";
      want = s.Stats.tier_demotions;
    };
  ]

(* ------------------------------------------------------------------ *)
(* The ledger fold                                                     *)
(* ------------------------------------------------------------------ *)

(* The ledger retains the stream's decision events, so its per-kind
   totals must equal the tally's counts over the decision kinds.  One
   check: [got] is the number of decision kinds (seen on either side)
   whose totals agree, [want] the number of decision kinds seen. *)
let ledger_fold (t : tally) (l : Ledger.t) : check =
  let totals = Ledger.totals l in
  let agrees k = (try List.assoc k totals with Not_found -> 0) = count t k in
  let kinds = Hashtbl.copy t.decision_kinds in
  List.iter (fun (k, _) -> Hashtbl.replace kinds k ()) totals;
  {
    name = "ledger per-kind totals = decision events (kinds agreeing)";
    got = Hashtbl.fold (fun k () n -> if agrees k then n + 1 else n) kinds 0;
    want = Hashtbl.length kinds;
  }

(* The full reconciliation for a finished solo-engine run: the event
   checks, plus the ledger fold when the run kept a ledger. *)
let run_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  event_checks t ~engine s
  @
  match Engine.ledger engine with
  | Some l -> [ ledger_fold t l ]
  | None -> []
