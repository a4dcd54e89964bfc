let current = "1.15.0"
