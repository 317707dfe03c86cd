let uniform rng ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  lo +. ((hi -. lo) *. Splitmix.float rng)

let exponential rng ~rate =
  (* Written as a negation so NaN fails it too; a NaN or infinite rate
     draws NaN or 0, and a Poisson loop over such gaps never ends. *)
  if not (rate > 0.0 && rate < infinity) then
    invalid_arg "Dist.exponential: rate not finite and positive";
  (* Inverse transform; 1 - u avoids log 0. *)
  -.log (1.0 -. Splitmix.float rng) /. rate

let poisson_process rng ~rate ~horizon =
  let rec go t acc =
    let t = t +. exponential rng ~rate in
    if t >= horizon then List.rev acc else go t (t :: acc)
  in
  go 0.0 []

let pick rng a =
  if Array.length a = 0 then invalid_arg "Dist.pick: empty array";
  a.(Splitmix.int rng (Array.length a))

let bernoulli rng ~p = Splitmix.float rng < p

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Splitmix.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
