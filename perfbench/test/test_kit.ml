(* The benchmark's own measurement helpers. *)

open Perfbench_kit

let samples n = Array.init n (fun i -> float_of_int (n - i))

let tail n =
  match Stats.tail (samples n) with
  | Some t -> (t.Stats.bp, t.Stats.value, t.Stats.beyond, t.Stats.samples)
  | None -> Alcotest.failf "no percentile for %d samples" n

let test_tail () =
  let check name n expected = Alcotest.(check (pair int (pair (float 0.0) (pair int int)))) name expected
      (let bp, v, b, s = tail n in (bp, (v, (b, s)))) in
  check "162 samples: p90, 16 beyond" 162 (9000, (146.0, (16, 162)));
  check "1000 samples: p99, exactly 10 beyond" 1000 (9900, (990.0, (10, 1000)));
  check "999 samples: p99 has 9 beyond, so p90" 999 (9000, (900.0, (99, 999)));
  check "20 samples: only the median" 20 (5000, (10.0, (10, 20)));
  check "10^5 samples: p99.99" 100_000 (9999, (99_990.0, (10, 100_000)));
  Alcotest.(check bool) "19 samples: none qualifies" true (Stats.tail (samples 19) = None)

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_self_intervals () =
  let self children = Spans.self_ns ~start:0 ~stop:100 children in
  Alcotest.(check int) "no children" 100 (self []);
  Alcotest.(check int) "disjoint children" 60 (self [ (10, 20); (30, 60) ]);
  Alcotest.(check int) "overlapping children count once" 40 (self [ (10, 50); (40, 70) ]);
  Alcotest.(check int) "a child inside another" 60 (self [ (10, 50); (20, 30) ]);
  Alcotest.(check int) "children clipped to the parent" 80 (self [ (-20, 10); (90, 130) ]);
  Alcotest.(check int) "a child covering the parent" 0 (self [ (-5, 105) ])

let busy () =
  let t0 = Clock.now_ns () in
  while Clock.now_ns () - t0 < 200_000 do () done

let test_self_store () =
  let t = Spans.create ~capacity:16 in
  let outer = Spans.enter t (Spans.intern t "outer") in
  busy ();
  let a = Spans.enter t (Spans.intern t "a") in
  busy ();
  let nested = Spans.enter t (Spans.intern t "nested") in
  busy ();
  Spans.leave t nested;
  Spans.leave t a;
  Spans.charge t 50_000;
  busy ();
  let b = Spans.enter t (Spans.intern t "b") in
  busy ();
  Spans.leave t b;
  Spans.leave t outer;
  let kids = Spans.children t in
  let d = Spans.duration t in
  Alcotest.(check (list int)) "direct children only" [ a; b ] kids.(outer);
  Alcotest.(check int) "outer: minus its children and its leaf time"
    (d outer - d a - d b - 50_000)
    (Spans.self t kids outer);
  Alcotest.(check int) "a: minus the nested span" (d a - d nested) (Spans.self t kids a);
  Alcotest.(check int) "leaf span keeps all its time" (d nested) (Spans.self t kids nested);
  Alcotest.(check (float 1e-12)) "outer's coverage: its disjoint children over its duration"
    (float_of_int (d a + d b) /. float_of_int (d outer))
    (Spans.coverage t kids outer)

let test_refcheck () =
  let values = [ 1.0; 0.1; -3.75e-300; 6.02e23; Float.min_float; 4.9e-324 ] in
  let kv xs = List.mapi (fun i f -> Refcheck.float (string_of_int i) f) xs in
  let expected = kv values in
  Alcotest.(check (list string)) "identical values match" [] (Refcheck.diff ~expected ~actual:(kv values));
  Alcotest.(check (list string)) "the text round-trips" []
    (Refcheck.diff ~expected ~actual:(Refcheck.of_string (Refcheck.to_string expected)));
  List.iteri
    (fun i f ->
      for bit = 0 to 63 do
        let flipped = Int64.float_of_bits (Int64.logxor (Int64.bits_of_float f) (Int64.shift_left 1L bit)) in
        let actual = kv (List.mapi (fun j g -> if i = j then flipped else g) values) in
        if Refcheck.diff ~expected ~actual = [] then
          Alcotest.failf "value %d: flipping bit %d went unnoticed" i bit
      done)
    values;
  Alcotest.(check bool) "-0 differs from 0" true
    (Refcheck.diff ~expected:[ Refcheck.float "z" 0.0 ] ~actual:[ Refcheck.float "z" (-0.0) ] <> []);
  Alcotest.(check bool) "a missing key fails" true
    (Refcheck.diff ~expected ~actual:(List.tl expected) <> [])

(* Published FNV-1a 64 vectors, and a file longer than the read buffer
   against the same digest computed byte by byte in one pass. *)
let test_digest_file () =
  let digest s =
    let path = "digest_file.bin" in
    Out_channel.with_open_bin path (fun oc -> output_string oc s);
    let d = Refcheck.digest_file path in
    Sys.remove path;
    d
  in
  Alcotest.(check (pair int string)) "empty" (0, "cbf29ce484222325") (digest "");
  Alcotest.(check (pair int string)) "a" (1, "af63dc4c8601ec8c") (digest "a");
  Alcotest.(check (pair int string)) "foobar" (6, "85944171f73967e8") (digest "foobar");
  let long = String.init 200_000 (fun i -> Char.chr ((i * 7919) land 255)) in
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L) long;
  Alcotest.(check (pair int string)) "across buffer refills" (200_000, Printf.sprintf "%016Lx" !h)
    (digest long)

let () =
  Alcotest.run "perfbench"
    [ ("stats", [ Alcotest.test_case "tail percentile rule" `Quick test_tail;
                  Alcotest.test_case "median" `Quick test_median ]);
      ("spans", [ Alcotest.test_case "self time over intervals" `Quick test_self_intervals;
                  Alcotest.test_case "self time in the store" `Quick test_self_store ]);
      ("refcheck", [ Alcotest.test_case "one flipped bit fails" `Quick test_refcheck;
                     Alcotest.test_case "file digest" `Quick test_digest_file ]) ]
