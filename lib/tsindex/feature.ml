module Coords = Simq_geometry.Coords

type config = {
  k : int;
  representation : Coords.representation;
}

let default = { k = 2; representation = Coords.Polar }

let validate config ~n =
  if config.k < 1 then invalid_arg "Feature.validate: k must be >= 1";
  if 2 * config.k >= n then
    invalid_arg
      (Printf.sprintf
         "Feature.validate: k = %d needs 2k < n = %d, so that every indexed \
          coefficient has a distinct conjugate mirror"
         config.k n)

let dims config = 2 + (2 * config.k)

let coefficients config (entry : Dataset.entry) =
  Simq_dsp.Flat.sub_cpx entry.Dataset.spectrum 1 config.k

(* Feature dimensions first, mean/std last: the bulk loader tiles along
   the leading dimensions, and queries constrain the DFT features while
   leaving mean/std free, so the discriminating dimensions must lead. *)
let point config (entry : Dataset.entry) =
  let encoded =
    Coords.encode config.representation (coefficients config entry)
  in
  Array.append encoded [| entry.Dataset.mean; entry.Dataset.std |]
