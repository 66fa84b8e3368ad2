let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  if n <= 0 then invalid_arg "Fft.next_power_of_two";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* Twiddle tables depend only on the transform size, so each is
   computed once and kept per domain: [Dataset.of_relation] runs FFTs
   on pool domains, and a domain-local cache needs no lock. Systhreads
   sharing a domain may interleave, but a table is complete before it
   is published and the list is only ever replaced whole, so the worst
   a race can do is compute one table twice. The list keeps the most
   recent [cache_limit] sizes. *)
let cache_key : (int * Flat.t) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let cache_limit = 16

(* Twiddles of a power-of-two size n: cos and sin of 2π·k/n for
   k < n/2, interleaved. Each is computed directly from its angle, so
   no error accumulates along a stage. *)
let twiddles n =
  let cache = Domain.DLS.get cache_key in
  match List.assoc_opt n !cache with
  | Some tw -> tw
  | None ->
    let tw = Array.create_float (2 * (n / 2)) in
    for k = 0 to (n / 2) - 1 do
      let theta = 2. *. Float.pi *. float_of_int k /. float_of_int n in
      tw.(2 * k) <- cos theta;
      tw.((2 * k) + 1) <- sin theta
    done;
    cache := List.filteri (fun i _ -> i < cache_limit) ((n, tw) :: !cache);
    tw

(* In-place iterative radix-2 Cooley-Tukey on a flat vector,
   unnormalised: computes Σ_t x_t e^(sign·2π·t·f·j / n). *)
let fft_pow2_inplace ~sign (x : Flat.t) =
  let n = Flat.length x in
  assert (is_power_of_two n);
  (* Bit-reversal permutation. *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let a = 2 * i and b = 2 * !j in
      let re = x.(a) and im = x.(a + 1) in
      x.(a) <- x.(b);
      x.(a + 1) <- x.(b + 1);
      x.(b) <- re;
      x.(b + 1) <- im
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* Butterflies: the twiddle of index k in a stage of length len is
     entry k·(n/len) of the size-n table. *)
  let tw = twiddles n in
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let stride = n / !len in
    let base = ref 0 in
    while !base < n do
      for k = 0 to half - 1 do
        let w = 2 * k * stride in
        let wr = tw.(w) and wi = sign *. tw.(w + 1) in
        let a = 2 * (!base + k) in
        let b = a + (2 * half) in
        let xr = x.(b) and xi = x.(b + 1) in
        let vr = (xr *. wr) -. (xi *. wi) and vi = (xr *. wi) +. (xi *. wr) in
        let ur = x.(a) and ui = x.(a + 1) in
        x.(a) <- ur +. vr;
        x.(a + 1) <- ui +. vi;
        x.(b) <- ur -. vr;
        x.(b + 1) <- ui -. vi
      done;
      base := !base + !len
    done;
    len := !len * 2
  done

(* Bluestein's chirp-z algorithm for arbitrary n, unnormalised: a
   length-n transform as a circular convolution of pow2 length
   m >= 2n - 1. The chirp angle uses t² mod 2n to keep the argument
   small: e^(sign·π·t²·j / n) has period 2n in t². *)
let bluestein ~sign (x : Flat.t) =
  let n = Flat.length x in
  let m = next_power_of_two ((2 * n) - 1) in
  let chirp = Array.create_float (2 * n) in
  for t = 0 to n - 1 do
    let t2 = t * t mod (2 * n) in
    let theta = sign *. Float.pi *. float_of_int t2 /. float_of_int n in
    chirp.(2 * t) <- cos theta;
    chirp.((2 * t) + 1) <- sin theta
  done;
  (* The kernel is the forward transform of the conjugate chirp,
     wrapped around circularly. *)
  let kernel = Array.make (2 * m) 0. in
  kernel.(0) <- 1.;
  for t = 1 to n - 1 do
    let re = chirp.(2 * t) and im = -.chirp.((2 * t) + 1) in
    kernel.(2 * t) <- re;
    kernel.((2 * t) + 1) <- im;
    kernel.(2 * (m - t)) <- re;
    kernel.((2 * (m - t)) + 1) <- im
  done;
  fft_pow2_inplace ~sign:(-1.) kernel;
  let a = Array.make (2 * m) 0. in
  for t = 0 to n - 1 do
    let xr = x.(2 * t) and xi = x.((2 * t) + 1) in
    let cr = chirp.(2 * t) and ci = chirp.((2 * t) + 1) in
    a.(2 * t) <- (xr *. cr) -. (xi *. ci);
    a.((2 * t) + 1) <- (xr *. ci) +. (xi *. cr)
  done;
  fft_pow2_inplace ~sign:(-1.) a;
  (* Pointwise product with the kernel, conjugated: the next forward
     transform then acts as the unnormalised inverse. *)
  for f = 0 to m - 1 do
    let ar = a.(2 * f) and ai = a.((2 * f) + 1) in
    let br = kernel.(2 * f) and bi = kernel.((2 * f) + 1) in
    a.(2 * f) <- (ar *. br) -. (ai *. bi);
    a.((2 * f) + 1) <- -.((ar *. bi) +. (ai *. br))
  done;
  fft_pow2_inplace ~sign:(-1.) a;
  let inv_m = 1. /. float_of_int m in
  let y = Array.create_float (2 * n) in
  for f = 0 to n - 1 do
    let zr = inv_m *. a.(2 * f) and zi = inv_m *. -.a.((2 * f) + 1) in
    let cr = chirp.(2 * f) and ci = chirp.((2 * f) + 1) in
    y.(2 * f) <- (cr *. zr) -. (ci *. zi);
    y.((2 * f) + 1) <- (cr *. zi) +. (ci *. zr)
  done;
  y

(* The one transform core: consumes [x] (a pow2 input is transformed in
   place) and returns the unitary transform. *)
let transform ~sign (x : Flat.t) =
  let n = Flat.length x in
  if n = 0 then x
  else begin
    let y =
      if is_power_of_two n then begin
        fft_pow2_inplace ~sign x;
        x
      end
      else bluestein ~sign x
    in
    let scale = 1. /. sqrt (float_of_int n) in
    for i = 0 to Array.length y - 1 do
      y.(i) <- scale *. y.(i)
    done;
    y
  end

let fft_real_flat xs = transform ~sign:(-1.) (Flat.of_real xs)
let fft x = Flat.to_cpx (transform ~sign:(-1.) (Flat.of_cpx x))
let ifft x = Flat.to_cpx (transform ~sign:1. (Flat.of_cpx x))
let fft_real xs = Flat.to_cpx (fft_real_flat xs)
