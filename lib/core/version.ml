let current = "1.24.0"
