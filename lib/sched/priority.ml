open Gripps_model
open Gripps_engine

type rule = Sim.state -> int -> float

let fcfs st j = Instance.release (Sim.instance st) j
let spt st j = Instance.size (Sim.instance st) j
let srpt st j = Sim.remaining st j

let swpt st j =
  let w = Instance.size (Sim.instance st) j in
  w *. w

let swrpt st j = Sim.remaining st j *. Instance.size (Sim.instance st) j
