(** Random distributions over a {!Splitmix} stream. *)

val uniform : Splitmix.t -> lo:float -> hi:float -> float
(** Uniform in [lo, hi).  @raise Invalid_argument if [hi < lo]. *)

val exponential : Splitmix.t -> rate:float -> float
(** Exponential with mean [1/rate].  @raise Invalid_argument unless
    [rate] is finite and positive (NaN and infinity included). *)

val poisson_process : Splitmix.t -> rate:float -> horizon:float -> float list
(** Arrival dates of a Poisson process of intensity [rate] on
    [0, horizon), in increasing order. *)

val pick : Splitmix.t -> 'a array -> 'a
(** Uniform element.  @raise Invalid_argument on an empty array. *)

val bernoulli : Splitmix.t -> p:float -> bool

val shuffle : Splitmix.t -> 'a array -> unit
(** In-place Fisher-Yates. *)
