open Gripps_model
open Gripps_engine
open Gripps_core
module W = Gripps_workload
module Q = Gripps_numeric.Rat

type sample = {
  density : float;
  optimized_degradation : float;
  non_optimized_degradation : float;
  sum_stretch_gain : float;
  instances : int;
}

let densities_of_paper =
  [ 0.0125; 0.025; 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 1.0; 1.5; 2.0; 3.0; 4.0 ]

let sweep ?(seed = 20060202) ?(instances_per_density = 10) ?densities
    ?(progress = fun _ _ -> ()) ~base () =
  let densities = Option.value ~default:densities_of_paper densities in
  let total = List.length densities in
  List.mapi
    (fun i density ->
      let config = { base with W.Config.density } in
      let degr_opt = ref [] and degr_non = ref [] and gains = ref [] in
      for k = 0 to instances_per_density - 1 do
        let rng = Gripps_rng.Splitmix.create (seed + (1_000_003 * k) + (7919 * i)) in
        let inst = W.Generator.instance rng config in
        let opt = Q.to_float (Offline.optimal_max_stretch inst) in
        let run s = (Sim.run_report_flat ~horizon:1e9 s inst).Sim.metrics in
        let m_opt = run Online_lp.online in
        let m_non = run Online_lp.online_non_optimized in
        if opt > 0.0 then begin
          (* Realized completion times are floats while the optimum is
             exact; clamp the microscopic negative rounding residue. *)
          let d m = Float.max 0.0 (100.0 *. ((m /. opt) -. 1.0)) in
          degr_opt := d m_opt.Metrics.max_stretch :: !degr_opt;
          degr_non := d m_non.Metrics.max_stretch :: !degr_non
        end;
        if m_non.Metrics.sum_stretch > 0.0 then
          gains :=
            (100.0
             *. (m_non.Metrics.sum_stretch -. m_opt.Metrics.sum_stretch)
             /. m_non.Metrics.sum_stretch)
            :: !gains
      done;
      progress (i + 1) total;
      { density;
        optimized_degradation = Stats.mean !degr_opt;
        non_optimized_degradation = Stats.mean !degr_non;
        sum_stretch_gain = Stats.mean !gains;
        instances = instances_per_density })
    densities
