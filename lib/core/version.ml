let current = "1.23.0"
