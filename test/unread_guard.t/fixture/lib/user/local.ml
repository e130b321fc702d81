let h x = Strs.(local_opened x)
