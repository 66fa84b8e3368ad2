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
let half_length n = (n / 2) + 1

let half x =
  if length x = 0 then invalid_arg "Flat.half: empty vector";
  Array.sub x 0 (2 * half_length (length x))

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

(* The kernels index with [unsafe_get] only after [check_half] has
   proved every operand holds the [n / 2 + 1] coefficients of a
   length-[n] half spectrum, so their inner loops carry no bounds
   checks. With the accumulator a local float ref, no kernel allocates
   in its inner loop. *)
let check_half name ~n stretch x q =
  let len = 2 * half_length n in
  let ok =
    n >= 1
    && Array.length x = len
    && Array.length q = len
    && match stretch with None -> true | Some s -> Array.length s = len
  in
  if not ok then
    invalid_arg
      (Printf.sprintf
         "Flat.%s: operands must hold the %d coefficients of a length-%d \
          half spectrum"
         name (half_length n) n)

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

(* [w_f *. t] for the multiplicity [w_f] of half-spectrum coefficient
   [f] in the full spectrum: 1 for DC and for an even [n]'s Nyquist term
   (their own mirrors), 2 otherwise. Where [w_f = 1] the multiply is
   skipped; [1. *. t = t], so the bits are the same. *)
let[@inline] weighted ~n f t = if f = 0 || 2 * f = n then t else 2. *. t

(* The full sum in three runs — DC, the mirrored pairs 1 .. (n - 1) / 2
   at weight 2, the Nyquist term of an even [n] — is [acc +. w_f *. t_f]
   in frequency order without a weight test per coefficient. *)
let sq_distance ?stretch ~n x q =
  check_half "sq_distance" ~n stretch x q;
  let last_pair = (n - 1) / 2 in
  let acc = ref 0. in
  (match stretch with
  | None ->
    acc := !acc +. term x q 0;
    for f = 1 to last_pair do
      acc := !acc +. (2. *. term x q (2 * f))
    done;
    if n mod 2 = 0 then acc := !acc +. term x q n
  | Some s ->
    acc := !acc +. term_stretched s x q 0;
    for f = 1 to last_pair do
      acc := !acc +. (2. *. term_stretched s x q (2 * f))
    done;
    if n mod 2 = 0 then acc := !acc +. term_stretched s x q n);
  !acc

(* Indexes [freqs] with ordinary bounds checks, so a frequency outside
   [0, n / 2] is rejected without a separate validation pass. *)
let sq_distance_at ?stretch ~n ~freqs x q =
  check_half "sq_distance_at" ~n stretch x q;
  let acc = ref 0. in
  (match stretch with
  | None ->
    for j = 0 to Array.length freqs - 1 do
      let f = freqs.(j) in
      let i = 2 * f in
      let dr = x.(i) -. q.(i) and di = x.(i + 1) -. q.(i + 1) in
      acc := !acc +. weighted ~n f ((dr *. dr) +. (di *. di))
    done
  | Some s ->
    for j = 0 to Array.length freqs - 1 do
      let f = freqs.(j) in
      let i = 2 * f in
      let sr = s.(i) and si = s.(i + 1) and xr = x.(i) and xi = x.(i + 1) in
      let dr = ((sr *. xr) -. (si *. xi)) -. q.(i) in
      let di = ((sr *. xi) +. (si *. xr)) -. q.(i + 1) in
      acc := !acc +. weighted ~n f ((dr *. dr) +. (di *. di))
    done);
  !acc

(* The runs of {!sq_distance}, each step taken only while the running
   sum is within [limit]. Like the scans this replaces it adds before
   testing, so DC is always read; [f] counts the coefficients read. *)
let sq_distance_abandon ?stretch ~n ~limit x q =
  check_half "sq_distance_abandon" ~n stretch x q;
  let last_pair = (n - 1) / 2 in
  let acc = ref 0. in
  let f = ref 1 in
  (match stretch with
  | None ->
    acc := !acc +. term x q 0;
    while !f <= last_pair && not (!acc > limit) do
      acc := !acc +. (2. *. term x q (2 * !f));
      incr f
    done;
    if n mod 2 = 0 && not (!acc > limit) then begin
      acc := !acc +. term x q n;
      incr f
    end
  | Some s ->
    acc := !acc +. term_stretched s x q 0;
    while !f <= last_pair && not (!acc > limit) do
      acc := !acc +. (2. *. term_stretched s x q (2 * !f));
      incr f
    done;
    if n mod 2 = 0 && not (!acc > limit) then begin
      acc := !acc +. term_stretched s x q n;
      incr f
    end);
  (!acc, !f)
