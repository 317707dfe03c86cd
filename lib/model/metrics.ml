type objective =
  | Makespan
  | Max_flow
  | Sum_flow
  | Max_stretch
  | Sum_stretch
  | Lp_flow of float
  | Lp_stretch of float
  | Per_user_max_stretch

type family = Stretch | Flow | Completion_time

exception Incomplete of int

let () =
  Printexc.register_printer (function
    | Incomplete j -> Some (Printf.sprintf "Metrics.Incomplete(job %d)" j)
    | _ -> None)

type t = {
  makespan : float;
  max_flow : float;
  sum_flow : float;
  max_stretch : float;
  sum_stretch : float;
}

let flow inst ~completion j =
  let f = completion.(j) -. Instance.release inst j in
  if f < -1e-6 then invalid_arg "Metrics.flow: completion before release";
  Float.max f 0.0

(* [1.0 /. size] is {!Job.stretch_weight}, written out on the column. *)
let stretch inst ~completion j =
  flow inst ~completion j *. (1.0 /. Instance.size inst j)

let slowdown inst ~completion j =
  flow inst ~completion j /. Instance.ideal_time inst j

let family = function
  | Makespan -> Completion_time
  | Max_flow | Sum_flow | Lp_flow _ -> Flow
  | Max_stretch | Sum_stretch | Lp_stretch _ | Per_user_max_stretch -> Stretch

let objective_name = function
  | Makespan -> "makespan"
  | Max_flow -> "max-flow"
  | Sum_flow -> "sum-flow"
  | Max_stretch -> "max-stretch"
  | Sum_stretch -> "sum-stretch"
  | Per_user_max_stretch -> "user-max-stretch"
  | Lp_stretch p ->
    if p = infinity then "linf-stretch" else Printf.sprintf "l%g-stretch" p
  | Lp_flow p ->
    if p = infinity then "linf-flow" else Printf.sprintf "l%g-flow" p

let objective_of_string s =
  let s = String.lowercase_ascii (String.trim s) in
  let parse_p prefix =
    let n = String.length prefix in
    if String.length s > n && String.starts_with ~prefix s then
      match String.sub s n (String.length s - n) with
      | "inf" -> Some infinity
      | num ->
        (match float_of_string_opt num with
         | Some p when p >= 1.0 && not (Float.is_nan p) -> Some p
         | _ -> None)
    else None
  in
  match s with
  | "makespan" -> Some Makespan
  | "max" | "max-stretch" -> Some Max_stretch
  | "sum" | "sum-stretch" -> Some Sum_stretch
  | "max-flow" -> Some Max_flow
  | "sum-flow" -> Some Sum_flow
  | "user" | "user-max-stretch" -> Some Per_user_max_stretch
  | _ ->
    (match parse_p "fp" with
     | Some p -> Some (Lp_flow p)
     | None ->
       (match parse_p "p" with
        | Some p -> Some (Lp_stretch p)
        | None -> None))

(* The per-field loops below reproduce the historical [of_completion]
   accumulators exactly: ascending job id, [Float.max] / [(+.)] from 0.0.
   Splitting the old single five-accumulator loop into one loop per field
   changes no summation order, so every derived field is bit-identical.

   The loops are hand-monomorphized — one concrete loop per (aggregate,
   value) pair calling the [@inline] helpers below directly — instead of
   taking the per-job value as a closure.  Without flambda an indirect
   call boxes its float result, which would cost O(jobs) minor words per
   [of_completion] and break the record:false simulation epilogue's
   zero-allocation budget (bench/main.exe objectives gates on it). *)

let[@inline] flow_v inst completion j =
  let f = completion.(j) -. Instance.release inst j in
  if f < -1e-6 then invalid_arg "Metrics.flow: completion before release";
  Float.max f 0.0

let[@inline] stretch_v inst completion j =
  flow_v inst completion j *. (1.0 /. Instance.size inst j)

let max_completion inst completion =
  let n = Instance.num_jobs inst in
  let acc = ref 0.0 in
  for j = 0 to n - 1 do
    acc := Float.max !acc completion.(j)
  done;
  !acc

let max_flow_of inst completion =
  let n = Instance.num_jobs inst in
  let acc = ref 0.0 in
  for j = 0 to n - 1 do
    acc := Float.max !acc (flow_v inst completion j)
  done;
  !acc

let sum_flow_of inst completion =
  let n = Instance.num_jobs inst in
  let acc = ref 0.0 in
  for j = 0 to n - 1 do
    acc := !acc +. flow_v inst completion j
  done;
  !acc

let max_stretch_of inst completion =
  let n = Instance.num_jobs inst in
  let acc = ref 0.0 in
  for j = 0 to n - 1 do
    acc := Float.max !acc (stretch_v inst completion j)
  done;
  !acc

let sum_stretch_of inst completion =
  let n = Instance.num_jobs inst in
  let acc = ref 0.0 in
  for j = 0 to n - 1 do
    acc := !acc +. stretch_v inst completion j
  done;
  !acc

(* ℓ_p norm of the per-job values, max-normalized: M · (Σ (v_j/M)^p)^(1/p).
   Dividing by the max keeps every power in [0, 1], so the sum never
   overflows even for large p, and the result is exact at the limits:
   monotone non-increasing in p, equal to the max at p = ∞ (up to the
   n^(1/p) factor bounding the gap). *)
let lp_flow_of inst completion p =
  let m = max_flow_of inst completion in
  if m <= 0.0 then 0.0
  else begin
    let n = Instance.num_jobs inst in
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. ((flow_v inst completion j /. m) ** p)
    done;
    m *. (!acc ** (1.0 /. p))
  end

let lp_stretch_of inst completion p =
  let m = max_stretch_of inst completion in
  if m <= 0.0 then 0.0
  else begin
    let n = Instance.num_jobs inst in
    let acc = ref 0.0 in
    for j = 0 to n - 1 do
      acc := !acc +. ((stretch_v inst completion j /. m) ** p)
    done;
    m *. (!acc ** (1.0 /. p))
  end

let check_p ctx p =
  if Float.is_nan p || p < 1.0 then
    invalid_arg (Printf.sprintf "Metrics.eval: %s order must be >= 1" ctx)

let eval obj inst ~completion =
  match obj with
  | Makespan -> max_completion inst completion
  | Max_flow -> max_flow_of inst completion
  | Sum_flow -> sum_flow_of inst completion
  | Max_stretch -> max_stretch_of inst completion
  | Sum_stretch -> sum_stretch_of inst completion
  | Lp_flow p ->
    check_p "Lp_flow" p;
    if p = infinity then max_flow_of inst completion
    else if p = 1.0 then sum_flow_of inst completion
    else lp_flow_of inst completion p
  | Lp_stretch p ->
    check_p "Lp_stretch" p;
    if p = infinity then max_stretch_of inst completion
    else if p = 1.0 then sum_stretch_of inst completion
    else lp_stretch_of inst completion p
  | Per_user_max_stretch ->
    let acc = Array.make (Instance.num_users inst) 0.0 in
    let n = Instance.num_jobs inst in
    for j = 0 to n - 1 do
      let u = Instance.user inst j in
      acc.(u) <- acc.(u) +. stretch_v inst completion j
    done;
    Array.fold_left Float.max 0.0 acc

let of_completion inst ~completion =
  { makespan = eval Makespan inst ~completion;
    max_flow = eval Max_flow inst ~completion;
    sum_flow = eval Sum_flow inst ~completion;
    max_stretch = eval Max_stretch inst ~completion;
    sum_stretch = eval Sum_stretch inst ~completion }

let of_schedule (sched : Schedule.t) =
  let inst = sched.Schedule.instance in
  for j = 0 to Instance.num_jobs inst - 1 do
    if not (Schedule.is_completed sched j) then raise (Incomplete j)
  done;
  of_completion inst ~completion:sched.Schedule.completion

let pp fmt m =
  Format.fprintf fmt
    "makespan=%.4g max_flow=%.4g sum_flow=%.4g max_stretch=%.4g sum_stretch=%.4g"
    m.makespan m.max_flow m.sum_flow m.max_stretch m.sum_stretch
