type t = { frames : float array }

let of_process process rng ~n = { frames = Process.generate process rng n }
let mean t = Numerics.Float_array.mean t.frames
let variance t = Numerics.Float_array.variance t.frames
let acf t ~max_lag = Stats.Acf.autocorrelation_fft t.frames ~max_lag
