open Gripps_model
open Gripps_engine

type rule = Sim.state -> int -> float

let job st j = Instance.job (Sim.instance st) j

let fcfs st j = (job st j).Job.release
let spt st j = (job st j).Job.size
let srpt st j = Sim.remaining st j

let swpt st j =
  let w = (job st j).Job.size in
  w *. w

let swrpt st j = Sim.remaining st j *. (job st j).Job.size
