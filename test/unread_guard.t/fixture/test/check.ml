let () = ignore (Strs.tested "x", Strs.test_only "y")
