let current = "1.22.0"
