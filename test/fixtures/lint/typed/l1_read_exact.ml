let f t r = Mutex.protect t (fun () -> Srv.Io.read_exact r 4 None)
