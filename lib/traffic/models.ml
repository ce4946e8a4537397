let ts = 0.04
let frame_mean = 500.0
let frame_variance = 5000.0
let z_alpha = 0.8
let v_alpha = 0.9
let l_alpha = 0.72
let z_values = [ 0.7; 0.9; 0.975; 0.99 ]
let v_values = [ 0.67; 1.0; 1.5 ]

type composite = {
  process : Process.t;
  fbndp : Fbndp.params;
  dar_a : float;
  v : float;
}

(* Shared construction of FBNDP + DAR(1) with the paper's variance
   split: the FBNDP carries fraction v/(v+1) of the mean and variance,
   the DAR(1) the rest. *)
let build ~name ~alpha ~m ~v ~dar_a =
  assert (v > 0.0 && dar_a > 0.0 && dar_a < 1.0);
  let weight = v /. (v +. 1.0) in
  let fbndp =
    Fbndp.of_moments ~alpha ~mean:(weight *. frame_mean)
      ~variance:(weight *. frame_variance) ~m ~ts
  in
  let lrd_part = Fbndp.process fbndp ~ts in
  let dar_marginal =
    Dar.gaussian_marginal
      ~mean:((1.0 -. weight) *. frame_mean)
      ~variance:((1.0 -. weight) *. frame_variance)
  in
  let dar_part =
    Dar.make ~name:"DAR(1)" dar_marginal { Dar.rho = dar_a; weights = [| 1.0 |] }
  in
  let process = Process.superpose ~name [ lrd_part; dar_part ] in
  { process; fbndp; dar_a; v }

let z ~a =
  assert (a > 0.0 && a < 1.0);
  build ~name:(Printf.sprintf "Z^%g" a) ~alpha:z_alpha ~m:15 ~v:1.0 ~dar_a:a

(* Reference lag-1 correlation: the v = 1, a = 0.8 point of the paper. *)
let v_reference_lag1 =
  let reference =
    build ~name:"V-ref" ~alpha:v_alpha ~m:15 ~v:1.0 ~dar_a:0.8
  in
  reference.process.Process.acf 1

let v ~v:ratio =
  assert (ratio > 0.0);
  (* Solve the composite lag-1 equation
     r(1) = w * r_X(1) + (1 - w) * a  for the DAR lag-1 [a]. *)
  let weight = ratio /. (ratio +. 1.0) in
  let fbndp =
    Fbndp.of_moments ~alpha:v_alpha ~mean:(weight *. frame_mean)
      ~variance:(weight *. frame_variance) ~m:15 ~ts
  in
  let r_x1 = Fbndp.frame_acf fbndp ~ts 1 in
  let dar_a = (v_reference_lag1 -. (weight *. r_x1)) /. (1.0 -. weight) in
  assert (dar_a > 0.0 && dar_a < 1.0);
  build ~name:(Printf.sprintf "V^%g" ratio) ~alpha:v_alpha ~m:15 ~v:ratio ~dar_a

let s_params ~a ~p =
  let { process; _ } = z ~a in
  Dar.fit ~target_acf:process.Process.acf ~p

let s ~a ~p =
  let params = s_params ~a ~p in
  let marginal =
    Dar.gaussian_marginal ~mean:frame_mean ~variance:frame_variance
  in
  Dar.make ~name:(Printf.sprintf "DAR(%d)~Z^%g" p a) marginal params

let l_params () =
  Fbndp.of_moments ~alpha:l_alpha ~mean:frame_mean ~variance:frame_variance
    ~m:30 ~ts

let l () =
  let params = l_params () in
  let process = Fbndp.process params ~ts in
  { process with Process.name = "L" }
