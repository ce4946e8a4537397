let buffer_cells_of_msec ~msec ~service_cells_per_frame ~ts =
  assert (msec >= 0.0 && service_cells_per_frame > 0.0 && ts > 0.0);
  msec /. 1000.0 *. service_cells_per_frame /. ts

let buffer_msec_of_cells ~cells ~service_cells_per_frame ~ts =
  assert (cells >= 0.0 && service_cells_per_frame > 0.0 && ts > 0.0);
  cells *. ts /. service_cells_per_frame *. 1000.0
