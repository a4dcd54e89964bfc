let current = "1.20.0"
