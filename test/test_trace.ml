(* Traces and the trace cache: keys, hash-consing, replacement
   accounting. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Trace = Tracegen.Trace
module Trace_cache = Tracegen.Trace_cache
module Layout = Cfg.Layout

let tc = Alcotest.test_case
let check = Alcotest.check

(* any layout will do for cache tests; use a small real program *)
let layout =
  lazy
    (let p = S.create () in
     S.def_method p ~name:"main" ~args:[] ~ret:S.I
       ~body:
         [
           decl_i "s" (i 0);
           for_ "k" (i 0) (i 5)
             [ if_ ((v "k" &! i 1) =! i 0) [ set "s" (v "s" +! v "k") ] [] ];
           ret (v "s");
         ]
       ();
     Layout.build (S.link p ~entry:"main"))

let some_gids n =
  let l = Lazy.force layout in
  List.init n (fun k -> k mod l.Layout.n_blocks)

let test_trace_make () =
  let l = Lazy.force layout in
  let blocks = Array.of_list (some_gids 3) in
  let tr = Trace.make ~id:0 ~layout:l ~first:1 ~blocks ~prob:0.98 in
  check Alcotest.int "three blocks" 3 (Trace.n_blocks tr);
  check (Alcotest.pair Alcotest.int Alcotest.int) "entry key" (1, blocks.(0))
    (Trace.entry_key tr);
  check Alcotest.int "last block" blocks.(2) (Trace.last_block tr);
  let expected_len =
    Array.fold_left (fun acc g -> acc + Layout.block_len l g) 0 blocks
  in
  check Alcotest.int "static instruction total" expected_len
    tr.Trace.total_instrs;
  check Alcotest.bool "empty trace rejected" true
    (try
       ignore (Trace.make ~id:1 ~layout:l ~first:0 ~blocks:[||] ~prob:1.0);
       false
     with Invalid_argument _ -> true)

let test_install_and_lookup () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let blocks = [| 1; 2; 0 |] in
  let tr = Trace_cache.install cache ~first:0 ~blocks ~prob:0.99 in
  check Alcotest.int "constructed" 1 (Trace_cache.n_constructed cache);
  (match Trace_cache.lookup cache ~prev:0 ~cur:1 with
  | Some found -> check Alcotest.bool "same trace" true (found == tr)
  | None -> Alcotest.fail "lookup missed installed trace");
  check Alcotest.bool "different context misses" true
    (Trace_cache.lookup cache ~prev:2 ~cur:1 = None);
  check Alcotest.bool "negative prev misses" true
    (Trace_cache.lookup cache ~prev:(-1) ~cur:1 = None)

let test_hash_consing () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let blocks = [| 1; 2 |] in
  let a = Trace_cache.install cache ~first:0 ~blocks ~prob:0.99 in
  let b = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:0.99 in
  check Alcotest.bool "identical reconstruction reuses the trace" true (a == b);
  check Alcotest.int "only one construction" 1 (Trace_cache.n_constructed cache);
  check Alcotest.int "no replacement" 0 (Trace_cache.n_replaced cache)

let test_replacement () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let a = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:0.99 in
  let b = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2; 0 |] ~prob:0.97 in
  check Alcotest.bool "different sequences are different traces" true (a != b);
  check Alcotest.int "replacement counted" 1 (Trace_cache.n_replaced cache);
  (* the entry key now dispatches the new trace *)
  (match Trace_cache.lookup cache ~prev:0 ~cur:1 with
  | Some found -> check Alcotest.bool "newest wins" true (found == b)
  | None -> Alcotest.fail "entry lost");
  (* the displaced trace is still reachable through iter_all *)
  let all = ref 0 in
  Trace_cache.iter_all cache (fun _ -> incr all);
  check Alcotest.int "both traces retained for statistics" 2 !all

let test_live_count () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  ignore (Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0);
  ignore (Trace_cache.install cache ~first:1 ~blocks:[| 2; 0 |] ~prob:1.0);
  check Alcotest.int "two live entries" 2 (Trace_cache.n_live cache);
  Trace_cache.flush cache;
  check Alcotest.int "flush empties the cache" 0 (Trace_cache.n_live cache)

(* The pin refcount belongs to the trace, not to its entry binding: a
   different trace installed at the same entry transition leaves the
   displaced (still executing) trace pinned until it is unpinned. *)
let test_pin_survives_rebinding () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let a = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  Trace_cache.pin cache a;
  let b = Trace_cache.install cache ~first:0 ~blocks:[| 1; 0 |] ~prob:1.0 in
  check Alcotest.bool "entry rebound to the new trace" true
    (match Trace_cache.peek cache ~first:0 ~head:1 with
    | Some t -> t == b
    | None -> false);
  check Alcotest.bool "displaced trace still pinned" true
    (Trace_cache.is_pinned cache a);
  check Alcotest.bool "new trace not pinned" false
    (Trace_cache.is_pinned cache b);
  Trace_cache.unpin cache a;
  check Alcotest.bool "unpinned" false (Trace_cache.is_pinned cache a)

(* flush drops every pin; an unpin arriving afterwards (a dispatch that
   was following a flushed trace) is a no-op, and the count does not go
   negative — a fresh pin still protects *)
let test_unpin_after_flush () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let a = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  Trace_cache.pin cache a;
  Trace_cache.flush cache;
  check Alcotest.bool "flush drops the pin" false
    (Trace_cache.is_pinned cache a);
  Trace_cache.unpin cache a;
  check Alcotest.bool "unpin after flush is a no-op" false
    (Trace_cache.is_pinned cache a);
  Trace_cache.pin cache a;
  check Alcotest.bool "a fresh pin still counts" true
    (Trace_cache.is_pinned cache a);
  Trace_cache.unpin cache a;
  check Alcotest.bool "and releases" false (Trace_cache.is_pinned cache a)

let test_completion_rate () =
  let l = Lazy.force layout in
  let tr = Trace.make ~id:0 ~layout:l ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  check (Alcotest.float 1e-9) "no entries yet" 0.0 (Trace.completion_rate tr);
  tr.Trace.entered <- 4;
  tr.Trace.completed <- 3;
  check (Alcotest.float 1e-9) "3 of 4" 0.75 (Trace.completion_rate tr)

let test_same_sequence () =
  let l = Lazy.force layout in
  let a = Trace.make ~id:0 ~layout:l ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  let b = Trace.make ~id:1 ~layout:l ~first:0 ~blocks:[| 1; 2 |] ~prob:0.9 in
  let c = Trace.make ~id:2 ~layout:l ~first:2 ~blocks:[| 1; 2 |] ~prob:1.0 in
  check Alcotest.bool "same first and blocks" true (Trace.same_sequence a b);
  check Alcotest.bool "different context differs" false (Trace.same_sequence a c)

let () =
  Alcotest.run "trace"
    [
      ( "trace values",
        [
          tc "make" `Quick test_trace_make;
          tc "completion rate" `Quick test_completion_rate;
          tc "same sequence" `Quick test_same_sequence;
        ] );
      ( "cache",
        [
          tc "install and lookup" `Quick test_install_and_lookup;
          tc "hash consing" `Quick test_hash_consing;
          tc "replacement" `Quick test_replacement;
          tc "live count and flush" `Quick test_live_count;
          tc "pin survives rebinding" `Quick test_pin_survives_rebinding;
          tc "unpin after flush" `Quick test_unpin_after_flush;
        ] );
    ]
