open Simq_dsp

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

let complex_array_testable eps =
  Alcotest.testable Cpx.pp_array (fun a b -> Cpx.close_arrays ~eps a b)

let check_cpx_arrays ?(eps = 1e-9) msg expected actual =
  Alcotest.check (complex_array_testable eps) msg expected actual

(* Deterministic pseudo-random signal helper for unit tests. *)
let random_signal seed n =
  let state = Random.State.make [| seed |] in
  Array.init n (fun _ -> Random.State.float state 100. -. 50.)

(* --- Cpx ------------------------------------------------------------- *)

let test_cpx_polar_roundtrip () =
  let z = Cpx.make 3. (-4.) in
  let z' = Cpx.polar (Cpx.abs z) (Cpx.angle z) in
  Alcotest.(check bool) "roundtrip" true (Cpx.close ~eps:1e-12 z z')

let test_cpx_arithmetic () =
  let a = Cpx.make 1. 2. and b = Cpx.make 3. (-1.) in
  check_float "re of product" 5. (Cpx.re (Cpx.mul a b));
  check_float "im of product" 5. (Cpx.im (Cpx.mul a b));
  check_float "re of sum" 4. (Cpx.re (Cpx.add a b));
  check_float "scale" 2.5 (Cpx.re (Cpx.scale 2.5 Cpx.one))

let test_cpx_root_of_unity () =
  let w = Cpx.root_of_unity 4 1 in
  Alcotest.(check bool) "e^(-i pi/2) = -i" true
    (Cpx.close ~eps:1e-12 w (Cpx.make 0. (-1.)))

let test_cpx_array_ops_mismatch () =
  Alcotest.check_raises "mul_arrays mismatch"
    (Invalid_argument "Cpx.mul_arrays: length mismatch (2 vs 3)") (fun () ->
      ignore (Cpx.mul_arrays [| Cpx.one; Cpx.one |] [| Cpx.one; Cpx.one; Cpx.one |]))

(* --- Dft -------------------------------------------------------------- *)

let test_dft_constant_signal () =
  (* DFT of a constant c over n points: X_0 = c·sqrt n, rest 0. *)
  let n = 8 in
  let x = Array.make n 5. in
  let coeffs = Dft.dft_real x in
  check_float "X_0" (5. *. sqrt (float_of_int n)) (Cpx.re coeffs.(0));
  for f = 1 to n - 1 do
    check_float "X_f re" 0. (Cpx.re coeffs.(f));
    check_float "X_f im" 0. (Cpx.im coeffs.(f))
  done

let test_dft_inverse_roundtrip () =
  let x = Cpx.of_real_array (random_signal 42 17) in
  check_cpx_arrays ~eps:1e-9 "idft (dft x) = x" x (Dft.idft (Dft.dft x))

let test_dft_linearity () =
  let x = Cpx.of_real_array (random_signal 1 12)
  and y = Cpx.of_real_array (random_signal 2 12) in
  let lhs =
    Dft.dft (Cpx.add_arrays (Cpx.scale_array 2. x) (Cpx.scale_array (-3.) y))
  in
  let rhs =
    Cpx.add_arrays
      (Cpx.scale_array 2. (Dft.dft x))
      (Cpx.scale_array (-3.) (Dft.dft y))
  in
  check_cpx_arrays ~eps:1e-9 "linearity" rhs lhs

let test_dft_coefficients_prefix () =
  let x = random_signal 3 16 in
  let full = Dft.dft_real x in
  let prefix = Dft.coefficients 4 x in
  check_cpx_arrays "prefix agrees" (Array.sub full 0 4) prefix;
  Alcotest.check_raises "k too large"
    (Invalid_argument "Dft.coefficients: k exceeds signal length") (fun () ->
      ignore (Dft.coefficients 17 x))

let test_dft_empty () =
  Alcotest.(check int) "empty" 0 (Array.length (Dft.dft [||]))

(* --- Fft -------------------------------------------------------------- *)

let test_fft_matches_dft_pow2 () =
  let x = Cpx.of_real_array (random_signal 7 64) in
  check_cpx_arrays ~eps:1e-8 "fft = dft (n=64)" (Dft.dft x) (Fft.fft x)

let test_fft_matches_dft_arbitrary () =
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal (100 + n) n) in
      check_cpx_arrays ~eps:1e-7
        (Printf.sprintf "fft = dft (n=%d)" n)
        (Dft.dft x) (Fft.fft x))
    [ 1; 2; 3; 5; 12; 15; 31; 100; 127 ]

let test_fft_inverse_roundtrip () =
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal n n) in
      check_cpx_arrays ~eps:1e-8
        (Printf.sprintf "ifft (fft x) = x (n=%d)" n)
        x
        (Fft.ifft (Fft.fft x)))
    [ 4; 9; 16; 33; 128 ]

let test_fft_prime_sizes () =
  (* Bluestein must handle awkward primes. *)
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal (n * 3) n) in
      check_cpx_arrays ~eps:1e-6
        (Printf.sprintf "prime n=%d" n)
        (Dft.dft x) (Fft.fft x))
    [ 7; 97; 251 ]

let test_fft_impulse () =
  (* The DFT of a unit impulse is flat: every coefficient 1/sqrt n. *)
  let n = 16 in
  let x = Array.init n (fun idx -> if idx = 0 then 1. else 0.) in
  let coeffs = Fft.fft_real x in
  let expected = 1. /. sqrt (float_of_int n) in
  Array.iter
    (fun c ->
      check_float "flat magnitude" expected (Cpx.re c);
      check_float "no phase" 0. (Cpx.im c))
    coeffs

let test_power_of_two_helpers () =
  Alcotest.(check bool) "1 is pow2" true (Fft.is_power_of_two 1);
  Alcotest.(check bool) "64 is pow2" true (Fft.is_power_of_two 64);
  Alcotest.(check bool) "12 is not" false (Fft.is_power_of_two 12);
  Alcotest.(check bool) "0 is not" false (Fft.is_power_of_two 0);
  Alcotest.(check int) "next of 1" 1 (Fft.next_power_of_two 1);
  Alcotest.(check int) "next of 65" 128 (Fft.next_power_of_two 65)

(* --- Convolution ------------------------------------------------------ *)

let test_convolution_identity_kernel () =
  (* Convolving with the delta kernel returns the signal unchanged. *)
  let x = random_signal 11 10 in
  let delta = Array.init 10 (fun idx -> if idx = 0 then 1. else 0.) in
  let y = Convolution.circular_real x delta in
  Array.iteri (fun idx v -> check_float "delta conv" x.(idx) v) y

let test_convolution_commutative () =
  let x = Cpx.of_real_array (random_signal 5 13)
  and y = Cpx.of_real_array (random_signal 6 13) in
  check_cpx_arrays ~eps:1e-7 "commutative" (Convolution.circular x y)
    (Convolution.circular y x)

let test_convolution_fft_agrees () =
  List.iter
    (fun n ->
      let x = Cpx.of_real_array (random_signal (n + 1) n)
      and y = Cpx.of_real_array (random_signal (n + 2) n) in
      check_cpx_arrays ~eps:1e-6
        (Printf.sprintf "fft conv (n=%d)" n)
        (Convolution.circular x y)
        (Convolution.circular_fft x y))
    [ 8; 15; 32 ]

let test_convolution_mismatch () =
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Convolution.circular: length mismatch") (fun () ->
      ignore (Convolution.circular [| Cpx.one |] [| Cpx.one; Cpx.one |]))

(* --- Window ----------------------------------------------------------- *)

let test_window_uniform () =
  let w = Window.uniform 4 in
  Alcotest.(check int) "width" 4 (Window.width w);
  let k = Window.kernel 8 w in
  check_float "weight" 0.25 k.(0);
  check_float "padding" 0. k.(5)

let test_window_weights_sum_to_one () =
  let sum w =
    Array.fold_left ( +. ) 0. (Window.kernel 16 w)
  in
  check_float_loose "uniform" 1. (sum (Window.uniform 5));
  check_float_loose "triangular" 1. (sum (Window.triangular 5));
  check_float_loose "ascending" 1. (sum (Window.ascending 5));
  check_float_loose "exponential" 1. (sum (Window.exponential ~alpha:0.3 5));
  check_float_loose "custom" 1. (sum (Window.custom [| 3.; 1.; 1. |]))

let test_window_ascending_orders_weights () =
  let w = Window.ascending 3 in
  let k = Window.kernel 4 w in
  Alcotest.(check bool) "recent day heaviest" true (k.(0) > k.(1) && k.(1) > k.(2))

let test_window_invalid () =
  Alcotest.check_raises "zero width" (Invalid_argument "Window.uniform")
    (fun () -> ignore (Window.uniform 0));
  Alcotest.check_raises "bad alpha"
    (Invalid_argument "Window.exponential: alpha must be in (0, 1]") (fun () ->
      ignore (Window.exponential ~alpha:1.5 3));
  Alcotest.check_raises "zero-sum weights"
    (Invalid_argument "Window.custom: weights sum to zero") (fun () ->
      ignore (Window.custom [| 1.; -1. |]));
  Alcotest.check_raises "window wider than signal"
    (Invalid_argument "Window.kernel: window wider than signal") (fun () ->
      ignore (Window.kernel 2 (Window.uniform 3)))

let test_window_transfer_dc_gain () =
  (* Weights sum to 1, so the DC gain H_0 is 1 for every window. *)
  List.iter
    (fun w ->
      let h = Window.transfer 32 w in
      check_float_loose "H_0 real" 1. (Cpx.re (Flat.get h 0));
      check_float_loose "H_0 imaginary" 0. (Cpx.im (Flat.get h 0)))
    [
      Window.uniform 5; Window.triangular 7; Window.ascending 4;
      Window.exponential ~alpha:0.4 6; Window.custom [| 2.; 1. |];
    ]

let test_window_transfer_is_moving_average () =
  (* Multiplying the half spectrum by the transfer function must give
     the half spectrum of the time-domain circular convolution with the
     kernel. *)
  let x = random_signal 21 16 in
  let w = Window.uniform 3 in
  let time_domain = Convolution.circular_real x (Window.kernel 16 w) in
  let transfer = Window.transfer 16 w in
  Alcotest.(check int) "half layout" 9 (Flat.length transfer);
  check_cpx_arrays ~eps:1e-6 "transfer = conv"
    (Flat.to_cpx (Flat.half (Fft.fft_real_flat time_domain)))
    (Flat.to_cpx (Flat.mul transfer (Flat.half (Fft.fft_real_flat x))))

(* --- Spectrum --------------------------------------------------------- *)

let test_parseval () =
  let x = random_signal 31 20 in
  check_float_loose "Parseval" (Spectrum.energy_real x)
    (Spectrum.energy (Fft.fft_real x))

let test_distance_preserved_by_dft () =
  let x = random_signal 41 32 and y = random_signal 42 32 in
  let time =
    Spectrum.distance (Cpx.of_real_array x) (Cpx.of_real_array y)
  in
  let freq = Spectrum.distance (Fft.fft_real x) (Fft.fft_real y) in
  check_float_loose "Eq. 8" time freq

let test_prefix_distance_lower_bound () =
  let x = Fft.fft_real (random_signal 51 64)
  and y = Fft.fft_real (random_signal 52 64) in
  let full = Spectrum.distance x y in
  for k = 0 to 64 do
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d <= full" k)
      true
      (Spectrum.prefix_distance k x y <= full +. 1e-9)
  done

let test_early_abandon () =
  let x = Fft.fft_real (random_signal 61 32)
  and y = Fft.fft_real (random_signal 62 32) in
  let full = Spectrum.distance x y in
  (match Spectrum.distance_early_abandon ~threshold:(full +. 1.) x y with
  | Some d -> check_float_loose "within threshold returns distance" full d
  | None -> Alcotest.fail "should not abandon");
  (match Spectrum.distance_early_abandon ~threshold:(full /. 2.) x y with
  | None -> ()
  | Some _ -> Alcotest.fail "should abandon")

let test_concentration_random_walk () =
  (* Brown-noise-like signals concentrate energy in low frequencies. *)
  let state = Random.State.make [| 9 |] in
  let n = 128 in
  let x = Array.make n 0. in
  x.(0) <- 50.;
  for t = 1 to n - 1 do
    x.(t) <- x.(t - 1) +. Random.State.float state 8. -. 4.
  done;
  let c = Spectrum.concentration 4 x in
  Alcotest.(check bool) "first 4 coeffs carry most energy" true (c > 0.9)

let test_concentration_zero_signal () =
  check_float "zero signal" 1. (Spectrum.concentration 3 (Array.make 8 0.))

(* --- property-based tests -------------------------------------------- *)

let signal_gen =
  QCheck.Gen.(
    let* n = int_range 1 64 in
    array_size (return n) (float_range (-100.) 100.))

let arb_signal = QCheck.make ~print:QCheck.Print.(array float) signal_gen

let prop_fft_roundtrip =
  QCheck.Test.make ~name:"ifft . fft = id" ~count:100 arb_signal (fun x ->
      let back = Fft.ifft (Fft.fft_real x) in
      Cpx.close_arrays ~eps:1e-6 (Cpx.of_real_array x) back)

let prop_fft_equals_dft =
  QCheck.Test.make ~name:"fft = dft" ~count:50 arb_signal (fun x ->
      Cpx.close_arrays ~eps:1e-6 (Dft.dft_real x) (Fft.fft_real x))

let prop_parseval =
  QCheck.Test.make ~name:"Parseval holds" ~count:100 arb_signal (fun x ->
      let te = Spectrum.energy_real x in
      let fe = Spectrum.energy (Fft.fft_real x) in
      Float.abs (te -. fe) <= 1e-6 *. (1. +. te))

let prop_convolution_theorem =
  QCheck.Test.make ~name:"DFT(conv x y) = sqrt n * X * Y" ~count:50
    (QCheck.pair arb_signal arb_signal) (fun (x, y) ->
      let n = min (Array.length x) (Array.length y) in
      QCheck.assume (n >= 1);
      let x = Array.sub x 0 n and y = Array.sub y 0 n in
      let conv = Convolution.circular_real x y in
      let lhs = Fft.fft_real conv in
      let rhs =
        Cpx.scale_array
          (sqrt (float_of_int n))
          (Cpx.mul_arrays (Fft.fft_real x) (Fft.fft_real y))
      in
      Cpx.close_arrays ~eps:1e-4 lhs rhs)

let prop_early_abandon_agrees =
  QCheck.Test.make ~name:"early abandon agrees with distance" ~count:100
    (QCheck.triple arb_signal arb_signal QCheck.pos_float)
    (fun (x, y, threshold) ->
      let n = min (Array.length x) (Array.length y) in
      QCheck.assume (n >= 1);
      let x = Cpx.of_real_array (Array.sub x 0 n)
      and y = Cpx.of_real_array (Array.sub y 0 n) in
      let d = Spectrum.distance x y in
      match Spectrum.distance_early_abandon ~threshold x y with
      | Some d' -> Float.abs (d -. d') <= 1e-9
      | None -> d > threshold -. 1e-9)

(* --- Flat kernels: bit-for-bit oracles ---------------------------------- *)

(* The boxed computations the flat kernels replaced — Cpx.mul by the
   stretch, Cpx.sub of the query, re² + im² — over a half spectrum of a
   real length-n series, each term weighted by its multiplicity in the
   full spectrum and added in frequency order. *)
let sq_norm z = (Cpx.re z *. Cpx.re z) +. (Cpx.im z *. Cpx.im z)

let mirror_weight ~n f = if f = 0 || 2 * f = n then 1. else 2.

let boxed_term ?stretch ~n x q f =
  let xf = match stretch with None -> x.(f) | Some s -> Cpx.mul s.(f) x.(f) in
  mirror_weight ~n f *. sq_norm (Cpx.sub xf q.(f))

let boxed_sum ?stretch ~n x q freqs =
  Array.fold_left (fun acc f -> acc +. boxed_term ?stretch ~n x q f) 0. freqs

(* The early-abandon loop of the boxed sequential scan: the sum reached
   and the coefficients read. *)
let boxed_abandon ?stretch ~n ~limit x q =
  let h = Array.length x in
  let acc = ref 0. and f = ref 0 and abandoned = ref false in
  while (not !abandoned) && !f < h do
    acc := !acc +. boxed_term ?stretch ~n x q !f;
    incr f;
    if !acc > limit then abandoned := true
  done;
  (!acc, !f)

let bits = Int64.bits_of_float
let same_bits a b = Int64.equal (bits a) (bits b)

(* Random half spectra and stretches for a series length n (n / 2 + 1
   coefficients each), with a subset of frequencies and a threshold
   scaled to the spectra. *)
let kernel_case_gen =
  QCheck.Gen.(
    let* n = int_range 1 96 in
    let h = Flat.half_length n in
    let coeffs =
      array_size (return h)
        (map2 Cpx.make (float_range (-50.) 50.) (float_range (-50.) 50.))
    in
    let* x = coeffs and* q = coeffs and* s = coeffs in
    let* freqs = array_size (int_range 0 8) (int_range 0 (h - 1)) in
    let* fraction = oneof [ return 0.; return 1.; float_range 0. 1.5 ] in
    return (n, x, q, s, freqs, fraction))

let arb_kernel_case =
  QCheck.make
    ~print:(fun (n, _, _, _, freqs, fraction) ->
      Printf.sprintf "n=%d freqs=%d fraction=%g" n (Array.length freqs)
        fraction)
    kernel_case_gen

let every x = Array.init (Array.length x) Fun.id

let prop_flat_full_distance =
  QCheck.Test.make ~name:"Flat.sq_distance = boxed distance, bit for bit"
    ~count:200 arb_kernel_case (fun (n, x, q, s, _, _) ->
      let fx = Flat.of_cpx x and fq = Flat.of_cpx q and fs = Flat.of_cpx s in
      same_bits (Flat.sq_distance ~n fx fq) (boxed_sum ~n x q (every x))
      && same_bits
           (Flat.sq_distance ~stretch:fs ~n fx fq)
           (boxed_sum ~stretch:s ~n x q (every x)))

let prop_flat_subset =
  QCheck.Test.make ~name:"Flat.sq_distance_at = boxed subset sum, bit for bit"
    ~count:200 arb_kernel_case (fun (n, x, q, s, freqs, _) ->
      let fx = Flat.of_cpx x and fq = Flat.of_cpx q and fs = Flat.of_cpx s in
      same_bits (Flat.sq_distance_at ~n ~freqs fx fq) (boxed_sum ~n x q freqs)
      && same_bits
           (Flat.sq_distance_at ~stretch:fs ~n ~freqs fx fq)
           (boxed_sum ~stretch:s ~n x q freqs)
      && same_bits
           (Flat.sq_distance_at ~n ~freqs:(every x) fx fq)
           (Flat.sq_distance ~n fx fq))

let prop_flat_abandon =
  QCheck.Test.make
    ~name:"Flat.sq_distance_abandon: same verdict, sum and coefficients read"
    ~count:300 arb_kernel_case (fun (n, x, q, s, _, fraction) ->
      let fx = Flat.of_cpx x and fq = Flat.of_cpx q and fs = Flat.of_cpx s in
      let check ?stretch ?fstretch () =
        let limit = fraction *. boxed_sum ?stretch ~n x q (every x) in
        let acc, touched =
          Flat.sq_distance_abandon ?stretch:fstretch ~n ~limit fx fq
        in
        let acc', touched' = boxed_abandon ?stretch ~n ~limit x q in
        same_bits acc acc' && touched = touched'
      in
      check () && check ~stretch:s ~fstretch:fs ())

(* The abandon contract on its own: abandoned exactly when the sum
   returned exceeds the limit (having read a proper prefix, or the last
   coefficient), and otherwise every coefficient was read and the sum
   is the full kernel's, bit for bit. *)
let prop_flat_abandon_contract =
  QCheck.Test.make ~name:"Flat.sq_distance_abandon: abandon contract"
    ~count:300 arb_kernel_case (fun (n, x, q, s, _, fraction) ->
      let fx = Flat.of_cpx x and fq = Flat.of_cpx q and fs = Flat.of_cpx s in
      let h = Array.length x in
      let check ?stretch () =
        let full = Flat.sq_distance ?stretch ~n fx fq in
        let limit = fraction *. full in
        let acc, read = Flat.sq_distance_abandon ?stretch ~n ~limit fx fq in
        if acc > limit then
          read >= 1 && read <= h
          && (read = h || not (acc > full))
          && same_bits acc
               (Flat.sq_distance_at ?stretch ~n
                  ~freqs:(Array.init read Fun.id) fx fq)
        else read = h && same_bits acc full
      in
      check () && check ~stretch:fs ())

(* Random real series for the Parseval checks below: a length from
   [lengths], two signals and a smoothing window no wider than it. *)
let real_pair_gen lengths =
  QCheck.Gen.(
    let* n = oneofl lengths in
    let signal = array_size (return n) (float_range (-10.) 10.) in
    let* x = signal and* q = signal in
    let* width = int_range 1 n in
    let* weights = array_size (return width) (float_range 0.1 1.) in
    return (n, x, q, Window.custom weights))

let arb_real_pair lengths =
  QCheck.make
    ~print:(fun (n, _, _, w) -> Printf.sprintf "n=%d window=%d" n (Window.width w))
    (real_pair_gen lengths)

let half_spectrum s = Flat.half (Fft.fft_real_flat s)

(* Over the half layout, the weighted kernel is the full-spectrum sum,
   hence (Parseval) the time-domain squared distance — to 1e-12 of the
   two signals' energy, plain and under a moving-average stretch. *)
let prop_half_kernel_parseval =
  QCheck.Test.make
    ~name:"half kernel = time-domain distance², n in {1,2,3,4,5,7,100,128}"
    ~count:200
    (arb_real_pair [ 1; 2; 3; 4; 5; 7; 100; 128 ])
    (fun (n, x, q, w) ->
      let module D = Simq_series.Distance in
      let close kernel a b =
        let exact = D.euclidean a b ** 2. in
        let scale = Spectrum.energy_real a +. Spectrum.energy_real b in
        Float.abs (kernel -. exact) <= 1e-12 *. scale
      in
      let hx = half_spectrum x and hq = half_spectrum q in
      let smoothed = Simq_series.Moving_average.circular w x in
      close (Flat.sq_distance ~n hx hq) x q
      && close
           (Flat.sq_distance ~stretch:(Window.transfer n w) ~n hx hq)
           smoothed q)

(* The flat FFT against the direct DFT, to 1e-12 of the signal's scale
   (its L2 norm, which the unitary transform preserves). *)
let test_flat_fft_matches_dft () =
  List.iter
    (fun n ->
      let x = random_signal (300 + n) n in
      let scale = sqrt (Spectrum.energy_real x) in
      let flat = Fft.fft_real_flat x in
      let direct = Dft.dft_real x in
      Alcotest.(check int)
        (Printf.sprintf "length n=%d" n)
        n (Flat.length flat);
      Array.iteri
        (fun f z ->
          let got = Flat.get flat f in
          let err =
            Float.max
              (Float.abs (Cpx.re got -. Cpx.re z))
              (Float.abs (Cpx.im got -. Cpx.im z))
          in
          if err > 1e-12 *. scale then
            Alcotest.failf "n=%d f=%d: |fft - dft| = %g > %g" n f err
              (1e-12 *. scale))
        direct;
      let half = Flat.half flat in
      Alcotest.(check int)
        (Printf.sprintf "half length n=%d" n)
        ((n / 2) + 1) (Flat.length half);
      let energy = Flat.sq_distance ~n half (Array.make (Array.length half) 0.) in
      if Float.abs (energy -. (scale *. scale)) > 1e-12 *. scale *. scale then
        Alcotest.failf "n=%d: Parseval, %.17g vs %.17g" n energy
          (scale *. scale))
    [ 1; 2; 3; 5; 7; 100; 128; 1024 ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fft_roundtrip;
      prop_fft_equals_dft;
      prop_parseval;
      prop_convolution_theorem;
      prop_early_abandon_agrees;
      prop_flat_full_distance;
      prop_flat_subset;
      prop_flat_abandon;
      prop_flat_abandon_contract;
      prop_half_kernel_parseval;
    ]

let () =
  Alcotest.run "simq_dsp"
    [
      ( "cpx",
        [
          Alcotest.test_case "polar roundtrip" `Quick test_cpx_polar_roundtrip;
          Alcotest.test_case "arithmetic" `Quick test_cpx_arithmetic;
          Alcotest.test_case "root of unity" `Quick test_cpx_root_of_unity;
          Alcotest.test_case "array mismatch" `Quick test_cpx_array_ops_mismatch;
        ] );
      ( "dft",
        [
          Alcotest.test_case "constant signal" `Quick test_dft_constant_signal;
          Alcotest.test_case "inverse roundtrip" `Quick test_dft_inverse_roundtrip;
          Alcotest.test_case "linearity" `Quick test_dft_linearity;
          Alcotest.test_case "coefficient prefix" `Quick test_dft_coefficients_prefix;
          Alcotest.test_case "empty signal" `Quick test_dft_empty;
        ] );
      ( "fft",
        [
          Alcotest.test_case "matches dft, power of two" `Quick
            test_fft_matches_dft_pow2;
          Alcotest.test_case "matches dft, arbitrary n" `Quick
            test_fft_matches_dft_arbitrary;
          Alcotest.test_case "inverse roundtrip" `Quick test_fft_inverse_roundtrip;
          Alcotest.test_case "prime sizes (Bluestein)" `Quick test_fft_prime_sizes;
          Alcotest.test_case "impulse" `Quick test_fft_impulse;
          Alcotest.test_case "power-of-two helpers" `Quick test_power_of_two_helpers;
        ] );
      ( "flat",
        [
          Alcotest.test_case "flat fft = dft, pow2 and Bluestein" `Quick
            test_flat_fft_matches_dft;
        ] );
      ( "convolution",
        [
          Alcotest.test_case "identity kernel" `Quick test_convolution_identity_kernel;
          Alcotest.test_case "commutative" `Quick test_convolution_commutative;
          Alcotest.test_case "fft agrees with direct" `Quick test_convolution_fft_agrees;
          Alcotest.test_case "length mismatch" `Quick test_convolution_mismatch;
        ] );
      ( "window",
        [
          Alcotest.test_case "uniform" `Quick test_window_uniform;
          Alcotest.test_case "weights sum to one" `Quick test_window_weights_sum_to_one;
          Alcotest.test_case "ascending order" `Quick test_window_ascending_orders_weights;
          Alcotest.test_case "invalid windows" `Quick test_window_invalid;
          Alcotest.test_case "transfer DC gain" `Quick test_window_transfer_dc_gain;
          Alcotest.test_case "transfer = moving average" `Quick
            test_window_transfer_is_moving_average;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "Parseval" `Quick test_parseval;
          Alcotest.test_case "distance preserved (Eq. 8)" `Quick
            test_distance_preserved_by_dft;
          Alcotest.test_case "prefix distance lower bound" `Quick
            test_prefix_distance_lower_bound;
          Alcotest.test_case "early abandon" `Quick test_early_abandon;
          Alcotest.test_case "random-walk concentration" `Quick
            test_concentration_random_walk;
          Alcotest.test_case "zero-signal concentration" `Quick
            test_concentration_zero_signal;
        ] );
      ("properties", properties);
    ]
