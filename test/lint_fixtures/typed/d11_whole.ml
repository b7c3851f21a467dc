let via_functor x = x
