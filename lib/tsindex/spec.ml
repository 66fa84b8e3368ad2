module Dsp = Simq_dsp
module Series = Simq_series.Series
module Ma = Simq_series.Moving_average
module Warp_op = Simq_series.Warp

type t =
  | Identity
  | Moving_average of int
  | Weighted_ma of Dsp.Window.t
  | Reverse
  | Warp of int

let apply_series t s =
  match t with
  | Identity -> s
  | Moving_average m -> Ma.circular (Dsp.Window.uniform m) s
  | Weighted_ma w -> Ma.circular w s
  | Reverse -> Series.reverse_sign s
  | Warp m -> Warp_op.expand m s

let stretch t ~n =
  match t with
  | Identity -> Dsp.Flat.constant (Dsp.Flat.half_length n) Dsp.Cpx.one
  | Moving_average m -> Dsp.Window.transfer n (Dsp.Window.uniform m)
  | Weighted_ma w -> Dsp.Window.transfer n w
  | Reverse ->
    Dsp.Flat.constant (Dsp.Flat.half_length n) (Dsp.Cpx.of_float (-1.))
  | Warp m ->
    let a = Warp_op.coefficients ~m ~n ~k:(Dsp.Flat.half_length n) in
    Dsp.Flat.scale (1. /. sqrt (float_of_int m)) (Dsp.Flat.of_cpx a)

let output_length t ~n =
  match t with
  | Identity | Moving_average _ | Weighted_ma _ | Reverse -> n
  | Warp m ->
    if m < 1 then invalid_arg "Spec.output_length: warp factor < 1";
    m * n

let name = function
  | Identity -> "id"
  | Moving_average m -> Printf.sprintf "mavg%d" m
  | Weighted_ma w -> Printf.sprintf "wma%d" (Dsp.Window.width w)
  | Reverse -> "rev"
  | Warp m -> Printf.sprintf "warp%d" m

let pp ppf t = Format.pp_print_string ppf (name t)
