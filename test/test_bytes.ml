(* Bytes per job of the batch path, as deterministic counts on the
   seed-42 10^5-job scale instance: the instance's reachable words, what
   an empty rule engine at capacity n adds to it, and the minor-heap
   words that drawing and building the instance allocate.  Each bound
   sits between the columnar layout's count and the record-and-list
   layout's (9, 12 and 140.6 per job). *)

open Gripps_model
module Scale = Gripps_experiments.Scale
module LS = Gripps_sched.List_sched

let n_target = 100_000
let words x = Obj.reachable_words (Obj.repr x)

(* Measured on its own first, so the count covers exactly one draw. *)
let test_setup_minor_words () =
  let mw0 = Gc.minor_words () in
  let inst = Scale.instance_for ~seed:42 n_target in
  let per_job =
    (Gc.minor_words () -. mw0) /. float_of_int (Instance.num_jobs inst)
  in
  Alcotest.(check bool)
    (Printf.sprintf "Generator.jobs + Instance.make: %.2f minor words/job <= 24"
       per_job)
    true (per_job <= 24.0)

let instance = lazy (Scale.instance_for ~seed:42 n_target)

(* Four columns: release, size, databank, user. *)
let test_instance_words () =
  let inst = Lazy.force instance in
  let n = Instance.num_jobs inst in
  let own = words inst - words (Instance.platform inst) in
  Alcotest.(check bool)
    (Printf.sprintf "instance: %d words for %d jobs (+ platform) <= 4/job + 16"
       own n)
    true
    (own <= (4 * n) + 16)

(* One id-indexed key/position pair for the whole heap family; slot
   columns sized by members (none yet); release and databank read from
   the instance in place. *)
let test_engine_words () =
  let inst = Lazy.force instance in
  let n = Instance.num_jobs inst in
  let platform = Instance.platform inst in
  let e =
    LS.engine ~rule:LS.Rule_swrpt ~platform ~capacity:n
      ~release:(Instance.releases inst) ~db:(Instance.databanks inst)
  in
  let added = words (inst, e) - words inst in
  let per_shape =
    64 * (Platform.num_machines platform + Platform.num_databanks platform)
  in
  Alcotest.(check bool)
    (Printf.sprintf "empty engine: %d words for %d ids <= 2/id + %d" added n
       per_shape)
    true
    (added <= (2 * n) + per_shape)

let suite =
  ( "bytes per job",
    [ Alcotest.test_case "set-up minor words" `Quick test_setup_minor_words;
      Alcotest.test_case "instance words" `Quick test_instance_words;
      Alcotest.test_case "empty engine words" `Quick test_engine_words ] )
