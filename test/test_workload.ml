(* Workload generation: configuration validation, platform realization
   invariants, and density calibration of the Poisson workloads. *)

open Gripps_model
module W = Gripps_workload
module Splitmix = Gripps_rng.Splitmix

let test_config_validation () =
  let expect msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  expect "Config.make: non-positive sites" (fun () ->
      ignore (W.Config.make ~sites:0 ~databases:1 ~availability:0.5 ~density:1.0 ()));
  expect "Config.make: availability outside (0, 1]" (fun () ->
      ignore (W.Config.make ~sites:1 ~databases:1 ~availability:1.5 ~density:1.0 ()));
  expect "Config.make: density not finite and positive" (fun () ->
      ignore (W.Config.make ~sites:1 ~databases:1 ~availability:0.5 ~density:0.0 ()));
  (* NaN and infinity fail the guards too: over a NaN or infinite
     density or window the generator never reaches its horizon. *)
  List.iter
    (fun x ->
      expect "Config.make: availability outside (0, 1]" (fun () ->
          ignore (W.Config.make ~sites:1 ~databases:1 ~availability:x ~density:1.0 ()));
      expect "Config.make: density not finite and positive" (fun () ->
          ignore (W.Config.make ~sites:1 ~databases:1 ~availability:0.5 ~density:x ()));
      expect "Config.make: horizon not finite and positive" (fun () ->
          ignore
            (W.Config.make ~horizon:x ~sites:1 ~databases:1 ~availability:0.5
               ~density:1.0 ())))
    [ nan; infinity ]

let test_paper_grid () =
  let grid = W.Config.paper_grid ~horizon:60.0 () in
  Alcotest.(check int) "162 configurations" 162 (List.length grid);
  (* All distinct. *)
  Alcotest.(check int) "no duplicates" 162
    (List.length (List.sort_uniq compare grid))

let test_platform_realization () =
  let c = W.Config.make ~sites:5 ~databases:4 ~availability:0.5 ~density:1.0 () in
  let rng = Splitmix.create 11 in
  for _ = 1 to 20 do
    let r = W.Generator.platform rng c in
    Alcotest.(check int) "sites" 5 (Platform.num_machines r.W.Generator.platform);
    Alcotest.(check int) "databanks" 4 (Platform.num_databanks r.W.Generator.platform);
    (* Every databank hosted somewhere (forced replica). *)
    for d = 0 to 3 do
      Alcotest.(check bool) "hosted" true
        (Platform.hosts_of r.W.Generator.platform d <> [])
    done;
    (* Cluster speeds are 10x a reference value. *)
    Array.iter
      (fun (m : Machine.t) ->
        let per_cpu = m.speed /. 10.0 in
        Alcotest.(check bool) "reference speed" true
          (Array.exists (fun s -> abs_float (s -. per_cpu) < 1e-9)
             W.Config.reference_speeds))
      (Platform.machines r.W.Generator.platform);
    (* Databank sizes within range. *)
    Array.iter
      (fun s -> Alcotest.(check bool) "size range" true (s >= 10.0 && s <= 1000.0))
      r.W.Generator.db_sizes
  done

let test_workload_density_calibration () =
  (* Expected total work ~= density x total speed x horizon. *)
  let c =
    W.Config.make ~sites:3 ~databases:3 ~availability:0.9 ~density:2.0 ~horizon:200.0 ()
  in
  let rng = Splitmix.create 5 in
  let reps = 40 in
  let ratio_sum = ref 0.0 in
  for _ = 1 to reps do
    let r = W.Generator.platform rng c in
    let jobs = W.Generator.jobs rng c r in
    let work = List.fold_left (fun acc (j : Job.t) -> acc +. j.size) 0.0 jobs in
    let cap = Platform.total_speed r.W.Generator.platform *. 200.0 in
    ratio_sum := !ratio_sum +. (work /. cap)
  done;
  let mean_ratio = !ratio_sum /. float_of_int reps in
  Alcotest.(check bool)
    (Printf.sprintf "mean load %.3f near density 2.0" mean_ratio)
    true
    (abs_float (mean_ratio -. 2.0) < 0.3)

let test_jobs_sorted_and_within_horizon () =
  let c = W.Config.make ~sites:2 ~databases:2 ~availability:0.8 ~density:1.0 ~horizon:50.0 () in
  let rng = Splitmix.create 3 in
  let r = W.Generator.platform rng c in
  let jobs = W.Generator.jobs rng c r in
  let rec sorted = function
    | (a : Job.t) :: (b : Job.t) :: rest -> a.release <= b.release && sorted (b :: rest)
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (sorted jobs);
  List.iter
    (fun (j : Job.t) ->
      Alcotest.(check bool) "release within horizon" true
        (j.release >= 0.0 && j.release < 50.0);
      Alcotest.(check bool) "size is its databank's size" true
        (abs_float (j.size -. r.W.Generator.db_sizes.(j.databank)) < 1e-9))
    jobs

let test_instance_deterministic () =
  let c = W.Config.default in
  let i1 = W.Generator.instance (Splitmix.create 99) c in
  let i2 = W.Generator.instance (Splitmix.create 99) c in
  Alcotest.(check int) "same job count" (Instance.num_jobs i1) (Instance.num_jobs i2);
  Array.iteri
    (fun k (j : Job.t) ->
      let j2 = Instance.job i2 k in
      Alcotest.(check (float 0.0)) "same release" j.release j2.Job.release;
      Alcotest.(check (float 0.0)) "same size" j.size j2.Job.size)
    (Instance.jobs i1)

(* ---- differential: the columnar generator vs the list-based one ---- *)

(* The list-based [Generator.jobs] the columnar one replaced, kept as
   the oracle: per-databank Poisson lists concatenated, user tags mapped
   over the concatenation, one stable list sort, renumbered records. *)
let list_jobs rng (c : W.Config.t) (r : W.Generator.realized) =
  let total_speed = Platform.total_speed r.W.Generator.platform in
  let per_db_work =
    c.W.Config.density *. total_speed *. c.W.Config.horizon
    /. float_of_int c.W.Config.databases
  in
  let all =
    List.concat
      (List.init c.W.Config.databases (fun d ->
           let size = r.W.Generator.db_sizes.(d) in
           let rate = per_db_work /. (size *. c.W.Config.horizon) in
           Gripps_rng.Dist.poisson_process rng ~rate ~horizon:c.W.Config.horizon
           |> List.map (fun release -> Job.make ~id:0 ~release ~size ~databank:d)))
  in
  let tagged =
    if c.W.Config.users <= 1 then all
    else
      List.map (fun j -> Job.with_user j (Splitmix.int rng c.W.Config.users)) all
  in
  List.sort Job.compare_by_release tagged
  |> List.mapi (fun i (j : Job.t) -> { j with id = i })

(* Field by field, floats by their bits. *)
let same_job (a : Job.t) (b : Job.t) =
  a.id = b.id && a.databank = b.databank && a.user = b.user
  && Int64.equal (Int64.bits_of_float a.release) (Int64.bits_of_float b.release)
  && Int64.equal (Int64.bits_of_float a.size) (Int64.bits_of_float b.size)

let prop_generator_matches_list_oracle =
  QCheck2.Test.make ~name:"columnar generator = list generator, bit for bit"
    ~count:150
    QCheck2.Gen.(
      tup5 (int_range 0 100_000) (int_range 1 5) (int_range 1 4)
        (oneofl [ 0.25; 1.0; 1.5; 3.0 ]) (oneofl [ 2.0; 15.0; 60.0 ]))
    (fun (seed, databases, users, density, horizon) ->
      let c =
        W.Config.make ~sites:3 ~databases ~availability:0.6 ~density ~horizon
          ~users ()
      in
      let rng = Splitmix.create seed in
      let r = W.Generator.platform rng c in
      let rng' = Splitmix.copy rng in
      let got = W.Generator.jobs rng c r in
      let want = list_jobs rng' c r in
      List.length got = List.length want
      && List.for_all2 same_job got want
      (* both consumed the same draws *)
      && Int64.equal (Splitmix.next_int64 rng) (Splitmix.next_int64 rng')
      && (got = []
         ||
         let inst = Instance.make ~platform:r.W.Generator.platform ~jobs:got in
         Array.for_all2 same_job (Instance.jobs inst) (Array.of_list want)))

let suite =
  ( "workload",
    [ Alcotest.test_case "config validation" `Quick test_config_validation;
      Alcotest.test_case "paper grid" `Quick test_paper_grid;
      Alcotest.test_case "platform realization" `Quick test_platform_realization;
      Alcotest.test_case "density calibration" `Quick test_workload_density_calibration;
      Alcotest.test_case "jobs sorted within horizon" `Quick
        test_jobs_sorted_and_within_horizon;
      Alcotest.test_case "deterministic generation" `Quick test_instance_deterministic;
      QCheck_alcotest.to_alcotest prop_generator_matches_list_oracle ] )
