let current = "1.10.0"
