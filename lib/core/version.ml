let current = "1.13.0"
