let current = "1.28.0"
