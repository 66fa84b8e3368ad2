type t = float array

let length x = Array.length x / 2
let get x f = Cpx.make x.(2 * f) x.((2 * f) + 1)

let of_cpx zs =
  let x = Array.create_float (2 * Array.length zs) in
  Array.iteri
    (fun f z ->
      x.(2 * f) <- Cpx.re z;
      x.((2 * f) + 1) <- Cpx.im z)
    zs;
  x

let to_cpx x = Array.init (length x) (get x)

let sub_cpx x pos len =
  if pos < 0 || len < 0 || pos + len > length x then invalid_arg "Flat.sub_cpx";
  Array.init len (fun i -> get x (pos + i))

let bit_equal x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       x y

let of_real xs =
  let x = Array.make (2 * Array.length xs) 0. in
  Array.iteri (fun t v -> x.(2 * t) <- v) xs;
  x

let constant n z = of_cpx (Array.make n z)

let check name x y =
  if Array.length x <> Array.length y then
    invalid_arg (Printf.sprintf "Flat.%s: length mismatch (%d vs %d)" name
                   (length x) (length y))

let mul s x =
  check "mul" s x;
  let y = Array.create_float (Array.length x) in
  for f = 0 to length x - 1 do
    let i = 2 * f in
    let sr = s.(i) and si = s.(i + 1) and xr = x.(i) and xi = x.(i + 1) in
    y.(i) <- (sr *. xr) -. (si *. xi);
    y.(i + 1) <- (sr *. xi) +. (si *. xr)
  done;
  y

let scale a x = Array.map (fun v -> a *. v) x

(* The full and early-abandon kernels index with [unsafe_get] only
   after [check_pair] has proved every operand has the same length, so
   their inner loops carry no bounds checks. With the accumulator a
   local float ref, no kernel allocates in its inner loop. *)
let check_pair name stretch x q =
  check name x q;
  match stretch with Some s -> check name s x | None -> ()

let uget (x : t) i = Array.unsafe_get x i [@@inline]

(* |x_f − q_f|² and |s_f x_f − q_f|², in the operation order of
   [Cpx.sub], [Cpx.mul] and the re² + im² of a squared norm. *)
let[@inline] term x q i =
  let dr = uget x i -. uget q i and di = uget x (i + 1) -. uget q (i + 1) in
  (dr *. dr) +. (di *. di)

let[@inline] term_stretched s x q i =
  let sr = uget s i and si = uget s (i + 1) in
  let xr = uget x i and xi = uget x (i + 1) in
  let dr = ((sr *. xr) -. (si *. xi)) -. uget q i in
  let di = ((sr *. xi) +. (si *. xr)) -. uget q (i + 1) in
  (dr *. dr) +. (di *. di)

let sq_distance ?stretch x q =
  check_pair "sq_distance" stretch x q;
  let acc = ref 0. in
  (match stretch with
  | None ->
    for f = 0 to length x - 1 do
      acc := !acc +. term x q (2 * f)
    done
  | Some s ->
    for f = 0 to length x - 1 do
      acc := !acc +. term_stretched s x q (2 * f)
    done);
  !acc

(* Indexes [freqs] with ordinary bounds checks, so a frequency outside
   [0, length x) is rejected without a separate validation pass. *)
let sq_distance_at ?stretch ~freqs x q =
  check_pair "sq_distance_at" stretch x q;
  let acc = ref 0. in
  (match stretch with
  | None ->
    for j = 0 to Array.length freqs - 1 do
      let i = 2 * freqs.(j) in
      let dr = x.(i) -. q.(i) and di = x.(i + 1) -. q.(i + 1) in
      acc := !acc +. ((dr *. dr) +. (di *. di))
    done
  | Some s ->
    for j = 0 to Array.length freqs - 1 do
      let i = 2 * freqs.(j) in
      let sr = s.(i) and si = s.(i + 1) and xr = x.(i) and xi = x.(i + 1) in
      let dr = ((sr *. xr) -. (si *. xi)) -. q.(i) in
      let di = ((sr *. xi) +. (si *. xr)) -. q.(i + 1) in
      acc := !acc +. ((dr *. dr) +. (di *. di))
    done);
  !acc

let sq_distance_abandon ?stretch ~limit x q =
  check_pair "sq_distance_abandon" stretch x q;
  let n = length x in
  let acc = ref 0. in
  let f = ref 0 in
  (* Add before testing, like the scans this replaces: a non-empty
     vector always reads its first coefficient. *)
  let go = ref (n > 0) in
  (match stretch with
  | None ->
    while !go do
      acc := !acc +. term x q (2 * !f);
      incr f;
      go := !f < n && not (!acc > limit)
    done
  | Some s ->
    while !go do
      acc := !acc +. term_stretched s x q (2 * !f);
      incr f;
      go := !f < n && not (!acc > limit)
    done);
  (!acc, !f)
