(* Decoder totality: every decoder over bytes we write — the warm-start
   snapshot, the flight-recorder postmortem dump and the bench baseline
   document — must return a value or a typed error for any input, never
   raise.  Each is fed every truncation of a real artifact and every
   single-byte corruption of it (XOR with 0x01, 0x80 and 0xff). *)

module Engine = Tracegen.Engine
module Config = Tracegen.Config
module Persist = Tracegen.Persist
module Flightrec = Tracegen.Flightrec
module Perf = Harness.Perf

let tc = Alcotest.test_case

let masks = [ 0x01; 0x80; 0xff ]

(* Call [f] on every proper prefix of [s], then on every single-byte
   XOR of it. *)
let iter_mutants s f =
  let n = String.length s in
  for i = 0 to n - 1 do
    f (Printf.sprintf "truncated at %d" i) (String.sub s 0 i)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun m ->
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code s.[i] lxor m));
        f (Printf.sprintf "byte %d ^ 0x%02x" i m) (Bytes.to_string b))
      masks
  done

(* [decode] must not raise on [input]; an exception fails the test with
   the mutation that provoked it. *)
let total what decode case input =
  match decode input with
  | _ -> ()
  | exception e ->
      Alcotest.failf "%s raised %s on input %s" what (Printexc.to_string e)
        case

(* A small program (decoding stamps the layout, so a short disassembly
   keeps thousands of decodes cheap) with a biased branch inside a hot
   loop: enough BCG nodes and traces for a non-trivial snapshot. *)
let layout =
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "s" (i 0);
        for_ "k" (i 0) (i 3_000)
          [
            if_ (v "k" %! i 7 =! i 0)
              [ set "s" (v "s" +! i 3) ]
              [ set "s" ((v "s" +! v "k") &! i 0xFFFF) ];
          ];
        ret (v "s");
      ]
    ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

(* A snapshot whose header is re-stamped for its (mutated) payload:
   length and checksum agree again, so decoding gets past the MD5 and
   into the payload grammar and range checks. *)
let restamp s =
  let header = 52 in
  if String.length s < header then s
  else begin
    let payload = String.sub s header (String.length s - header) in
    let b = Bytes.of_string s in
    Bytes.set_int64_le b 28 (Int64.of_int (String.length payload));
    Bytes.blit_string (Digest.string payload) 0 b 36 16;
    Bytes.to_string b
  end

let test_persist () =
  let r = Engine.run layout in
  let snap = Engine.snapshot r.Engine.engine in
  (match Persist.decode ~layout snap with
  | Ok s ->
      Alcotest.(check bool) "the snapshot carries traces" true
        (s.Persist.cache_entries <> [])
  | Error e ->
      Alcotest.failf "pristine snapshot rejected: %s"
        (Persist.error_to_string e));
  (* one engine serves every rejected input (a rejection touches
     nothing); an accepted one is restored into a fresh engine *)
  let shared = Engine.create layout in
  let check case data =
    match Persist.decode ~layout data with
    | exception e ->
        Alcotest.failf "Persist.decode raised %s on input %s"
          (Printexc.to_string e) case
    | decoded ->
        let engine =
          match decoded with Ok _ -> Engine.create layout | Error _ -> shared
        in
        total "Engine.restore" (Engine.restore engine) case data
  in
  iter_mutants snap check;
  iter_mutants snap (fun case data ->
      check ("re-stamped, " ^ case) (restamp data))

let test_postmortem () =
  let config = Config.make ~flightrec_capacity:16 () in
  let r = Engine.run ~config layout in
  let fr =
    match Engine.flightrec r.Engine.engine with
    | Some fr -> fr
    | None -> Alcotest.fail "recorder not armed"
  in
  Alcotest.(check bool) "the ring wrapped" true (Flightrec.dropped fr > 0);
  let dump = Harness.Codec.postmortem_jsonl ~reason:"manual" fr in
  (match Harness.Postmortem.describe_dump dump with
  | Ok lines ->
      Alcotest.(check int) "header plus a full ring" 17 (List.length lines)
  | Error e -> Alcotest.failf "pristine dump rejected: %s" e);
  iter_mutants dump
    (total "Postmortem.describe_dump" Harness.Postmortem.describe_dump)

let test_perf () =
  let m name value better = Perf.metric ~name ~value ~unit_:"ms/run" ~better in
  let run =
    {
      Perf.bench = "totality";
      env = Perf.env_stamp ~scale:0.5;
      sections =
        [
          {
            Perf.label = "dispatch";
            metrics =
              [ m "block_ns" 12.5 Perf.Lower; m "coverage" 0.93 Perf.Higher ];
          };
          {
            Perf.label = "cache";
            metrics = [ m "evictions" 125. Perf.Lower ];
          };
        ];
    }
  in
  let doc = Perf.to_string run in
  (match Perf.of_string doc with
  | Ok back ->
      Alcotest.(check int) "round trip" 2 (List.length back.Perf.sections)
  | Error e -> Alcotest.failf "pristine document rejected: %s" e);
  iter_mutants doc (total "Perf.of_string" Perf.of_string)

let () =
  Alcotest.run "decoders"
    [
      ( "totality",
        [
          tc "persist snapshot" `Quick test_persist;
          tc "postmortem dump" `Quick test_postmortem;
          tc "bench document" `Quick test_perf;
        ] );
    ]
