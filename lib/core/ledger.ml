(* Decision ledger: the engine's decision events, retained.  Every
   consequential action is emitted once on the event stream; the
   engine's tap hands each event here, and the ledger keeps it iff its
   kind is a decision, stamped with the span it happened under.  The
   record's tick is the event's own time, so the ledger and the
   timeline share one time base. *)

type record = { seq : int; span : int; event : Events.event }

type t = { mutable store : record array; mutable n : int }

let create () = { store = [||]; n = 0 }

let length t = t.n

let note t ~span (event : Events.event) =
  if Events.is_decision event.Events.payload then begin
    let r = { seq = t.n; span; event } in
    if t.n >= Array.length t.store then begin
      let cap = max 64 (2 * Array.length t.store) in
      let store = Array.make cap r in
      Array.blit t.store 0 store 0 t.n;
      t.store <- store
    end;
    t.store.(t.n) <- r;
    t.n <- t.n + 1
  end

let to_list t = List.init t.n (fun i -> t.store.(i))

let trace_of : Events.payload -> int = function
  | Events.Trace_constructed { trace_id; _ }
  | Events.Trace_replaced { trace_id; _ }
  | Events.Guards_pruned { trace_id; _ }
  | Events.Trace_quarantined { trace_id; _ }
  | Events.Trace_evicted { trace_id; _ }
  | Events.Trace_compiled { trace_id; _ }
  | Events.Tier_demoted { trace_id; _ }
  | Events.Osr_promoted { trace_id; _ }
  | Events.Deopt_entered { trace_id; _ } ->
      trace_id
  | _ -> -1

let names_block b : Events.payload -> bool = function
  | Events.Trace_constructed { first; _ } -> first = b
  | Events.Trace_replaced { first; head; _ }
  | Events.Trace_quarantined { first; head; _ }
  | Events.Trace_evicted { first; head; _ } ->
      first = b || head = b
  | Events.Osr_promoted { header; latch; _ } -> header = b || latch = b
  | _ -> false

let for_trace t id =
  List.filter (fun r -> trace_of r.event.Events.payload = id) (to_list t)

let for_block t b =
  let all = to_list t in
  let named r = names_block b r.event.Events.payload in
  let traces = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let id = trace_of r.event.Events.payload in
      if id >= 0 && named r then Hashtbl.replace traces id ())
    all;
  List.filter
    (fun r -> named r || Hashtbl.mem traces (trace_of r.event.Events.payload))
    all

(* Per-kind record counts, used by the oracle fold and 'explain'. *)
let totals t =
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let k = Events.kind t.store.(i).event.Events.payload in
    Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k))
  done;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
