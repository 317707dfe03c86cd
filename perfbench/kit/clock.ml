(* Every timing of the benchmark reads this clock.  [Monotonic_clock.now]
   is a [@@noalloc] external returning an unboxed int64, so a read costs
   no minor-heap word and a span around an allocation-free loop leaves
   that loop allocation-free. *)

let[@inline] now_ns () = Int64.to_int (Monotonic_clock.now ())

let to_s ns = float_of_int ns *. 1e-9

let since_s t0 = to_s (now_ns () - t0)
